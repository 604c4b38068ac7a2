package server

import (
	"testing"

	"xivm/internal/pattern"
	"xivm/internal/update"
)

// TestResultCachePutRacingAWrite drives the result cache's put behind
// noted writes, as a reader that answered at version v does when the
// writer lands v+1 before the reader's put: a write that may affect the
// query's pattern keeps the answer's bytes out, an independent one lets
// them in, and once more than queryCacheRingCap writes have pushed v below
// the ring's floor nothing is stored, however independent the writes were.
func TestResultCachePutRacingAWrite(t *testing.T) {
	const q = `/site/people/person/name`
	pat := pattern.MustParse(`/site/people/person/name{ID}`)
	affecting := update.MustParse(`insert <person><name>Zed</name></person> into /site/people`)
	independent := update.MustParse(`insert <note/> into /site/regions`)
	if !mayAffect(pat, affecting) || mayAffect(pat, independent) {
		t.Fatal("the statements do not split as the test needs: one affecting the pattern, one independent of it")
	}
	answer := []byte(`[{"id":"x"}]`)
	// behind returns a cache holding q's key at version 0, after the writes
	// were noted one at a time, and what a put of q's answer at version 0
	// then stored.
	behind := func(writes ...*update.Statement) (*queryCache, []byte) {
		c := newQueryCache(0)
		c.put(q, pat, "plan", 0, answer) // the first miss keys the query
		for i, st := range writes {
			c.noteApplied([]*update.Statement{st}, uint64(i+1))
		}
		c.put(q, pat, "plan", 0, answer)
		e, ok := c.entries.Get(q)
		if !ok {
			t.Fatal("the query's key left the cache")
		}
		return c, e.matches
	}

	if _, stored := behind(affecting); stored != nil {
		t.Errorf("a put at v behind an affecting write at v+1 stored %q", stored)
	}
	c, stored := behind(independent)
	if string(stored) != string(answer) {
		t.Errorf("a put at v behind an independent write stored %q, want %q", stored, answer)
	}
	if _, got, ok := c.get(q, 1); !ok || string(got) != string(answer) {
		t.Errorf("the answer stored behind an independent write does not serve at v+1: %q, %v", got, ok)
	}
	many := make([]*update.Statement, queryCacheRingCap+1)
	for i := range many {
		many[i] = independent
	}
	c, stored = behind(many...)
	if c.floor == 0 || stored != nil {
		t.Errorf("a put at v after %d independent writes (floor %d) stored %q, want nothing", len(many), c.floor, stored)
	}
}
