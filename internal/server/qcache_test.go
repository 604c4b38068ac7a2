package server

import (
	"testing"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// TestResultCacheServesOnlyItsVersion drives the result cache of a
// replica shard the way a follower's tailer does — a run applied to the
// engine, then PublishReplica — so every run, even one that lands
// nothing, passes swapEpoch. An entry's bytes serve only the version they
// were computed at; a newer published version takes them and keeps the
// key; a put computed at an older version than the newest stores nothing;
// a run whose statements all fail empties nothing.
func TestResultCacheServesOnlyItsVersion(t *testing.T) {
	m := obs.New()
	reg, _ := newRewriteRegistry(t, m)
	doc, err := xmltree.ParseString(rewriteTestDoc())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(doc, core.WithMetrics(obs.New()))
	if _, err := eng.AddView("RW1", pattern.MustParse(`/site{ID}/people{ID}/person{ID}/name{ID,val}`)); err != nil {
		t.Fatal(err)
	}
	sh := NewReplicaShard("follower", eng, 0, 0, Config{Metrics: m})
	c := sh.qcache
	hits, invalidated := m.Counter("server.xpath.rewrite.cache_hit"), m.Counter("server.xpath.rewrite.cache_invalidate")
	const (
		q    = `/site/people/person/name` // single-view plan
		once = `/site/regions//item`      // bridgeable, tree walk
	)
	// ask reads q at snap and reports whether the cache served it.
	ask := func(snap *core.Snapshot, q string) (hit bool) {
		t.Helper()
		before := hits.Value()
		if _, err := reg.xpathResponse(sh, snap, q, true); err != nil {
			t.Fatal(err)
		}
		return hits.Value() > before
	}
	// held reports whether q is keyed, and whether it holds bytes.
	held := func(q string) (keyed, body bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		e, ok := c.entries.Get(q)
		return ok, ok && e.matches != nil
	}
	lsn := uint64(0)
	// run applies stmts as one run and publishes the engine as it is.
	run := func(stmts ...string) []pulopt.Result {
		t.Helper()
		sts := make([]*update.Statement, len(stmts))
		for i, s := range stmts {
			sts[i] = update.MustParse(s)
		}
		r := pulopt.ApplyRun(eng, sts, nil)
		lsn += uint64(len(stmts))
		sh.PublishReplica(eng.Snapshot(), lsn, lsn)
		return r.Results
	}

	// The first miss stores a key, the second bytes, which serve at v.
	old := sh.Epoch()
	v := old.Version
	if ask(old, q) || ask(old, once) {
		t.Fatal("a first ask hit the cache")
	}
	if keyed, body := held(q); !keyed || body {
		t.Fatalf("after one miss: keyed %v, bytes %v; want the key alone", keyed, body)
	}
	if ask(old, q) {
		t.Fatal("the second ask hit the cache")
	}
	if _, body := held(q); !body {
		t.Fatal("the second miss stored no bytes")
	}
	if !ask(old, q) {
		t.Fatalf("the stored answer does not serve at its version %d", v)
	}

	// An advancing publish takes the bytes, keeps the key, and counts the
	// entries that held bytes: q, not the bodiless once.
	for i, r := range run(`insert <person><name>Zed</name></person> into /site/people`) {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	cur := sh.Epoch()
	if cur.Version != v+1 {
		t.Fatalf("published version %d, want %d", cur.Version, v+1)
	}
	if got := invalidated.Value(); got != 1 {
		t.Fatalf("cache_invalidate = %d after the advance, want 1: only q held bytes", got)
	}
	for _, q := range []string{q, once} {
		if keyed, body := held(q); !keyed || body {
			t.Fatalf("%s after the advance: keyed %v, bytes %v; want the key alone", q, keyed, body)
		}
	}
	for _, at := range []uint64{v, v + 1} {
		if _, _, ok := c.get(q, at); ok {
			t.Fatalf("served at version %d after the advance", at)
		}
	}

	// A put computed at v, by a reader that held the old epoch, stores
	// nothing.
	if ask(old, q) {
		t.Fatal("a read of the old epoch hit the cache after the advance")
	}
	if _, body := held(q); body {
		t.Fatal("a put computed at the old version stored bytes")
	}

	// The next put at v+1 stores bytes, which serve at v+1 only.
	if ask(cur, q) {
		t.Fatal("a read of the new epoch hit the cache before its put")
	}
	if _, body := held(q); !body {
		t.Fatal("a put at the newest version stored no bytes")
	}
	if !ask(cur, q) {
		t.Fatal("the answer stored at v+1 does not serve at v+1")
	}
	if _, _, ok := c.get(q, v); ok || ask(old, q) {
		t.Fatal("the answer stored at v+1 serves at v")
	}
	if _, body := held(q); !body {
		t.Fatal("a read of the old epoch emptied the entry")
	}

	// A run whose statements all fail publishes no new version and
	// empties nothing.
	for i, r := range run(`delete /site`, `delete /site`) {
		if r.Err == nil {
			t.Fatalf("statement %d of the failing run landed", i)
		}
	}
	if got := sh.Epoch().Version; got != v+1 {
		t.Fatalf("a run that landed nothing published version %d, want %d", got, v+1)
	}
	if got := invalidated.Value(); got != 1 {
		t.Fatalf("cache_invalidate = %d after a run that landed nothing, want 1", got)
	}
	if !ask(sh.Epoch(), q) {
		t.Fatal("a run that landed nothing emptied the entry")
	}
}
