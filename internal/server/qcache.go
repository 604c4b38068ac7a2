package server

import (
	"sync"

	"xivm/internal/independence"
	"xivm/internal/lru"
	"xivm/internal/pattern"
	"xivm/internal/update"
)

// queryCache is a per-shard XPath result cache invalidated by the engine's
// applied-statement delta stream — the same deltas that maintain the views.
// Only pattern-expressible queries are cached (the bridged pattern is what
// the independence test runs against); an entry survives a write exactly
// when independence.Check proves the write cannot affect its pattern.
//
// An answer's bytes are kept on its query's second miss. The first miss
// leaves a bodiless entry — the key and its pattern — which never serves;
// a miss that finds the key copies the bytes in. A write that may affect an
// entry takes its bytes and keeps the key, so a hot query is stored again
// on its next miss, while a one-off query, which the LRU evicts before it
// comes back, costs no copy of its answer.
//
// Correctness rests on two version invariants, both guarded by mu:
//
//   - notifiedUpTo: every engine version up to and including it has been
//     vetted against the cache (entries a write may affect were dropped as
//     it landed). A lookup at snapshot version V serves an entry only when
//     entry.version <= V <= notifiedUpTo: anything newer than the vetted
//     range might invalidate silently. The engine's OnApplied contract
//     makes gaps detectable — a notification whose version does not equal
//     notifiedUpTo plus its statement count means un-vetted writes landed
//     (direct PUL application, batch units without source statements),
//     and the whole cache is discarded.
//
//   - ring: the recent vetted writes, so a put computed against an older
//     snapshot (a reader raced a writer) is accepted only if every vetted
//     write newer than its snapshot is provably independent of its
//     pattern; older than the ring's floor it is simply rejected.
//
// The hook fires on the applying goroutine before the shard publishes the
// new epoch, so by the time any reader can observe version V, the cache
// has already been vetted through V.
type queryCache struct {
	mu           sync.Mutex
	entries      *lru.Cache[string, *cachedResult] // by query
	notifiedUpTo uint64
	ring         []appliedWrite
	floor        uint64 // versions <= floor have left the ring
	invalidated  int64  // cumulative entries whose bytes deltas took (for tests)
}

// cachedResult is one entry. Its fields change only under the cache's mutex,
// and get hands out copies of them.
type cachedResult struct {
	pat     *pattern.Pattern
	matches []byte // the encoded matches array, exactly sized; nil in a bodiless entry
	plan    string
	version uint64 // the snapshot version matches were computed at
}

type appliedWrite struct {
	st      *update.Statement
	version uint64
}

const (
	queryCacheCap     = 128
	queryCacheRingCap = 64
)

func newQueryCache(startVersion uint64) *queryCache {
	return &queryCache{
		entries:      lru.New[string, *cachedResult](queryCacheCap),
		notifiedUpTo: startVersion,
		floor:        startVersion,
	}
}

// get returns the plan and the encoded matches cached for q, valid at
// snapshot version cur. A bodiless entry never serves.
func (c *queryCache) get(q string, cur uint64) (plan string, matches []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(q)
	if !ok || e.matches == nil || e.version > cur || cur > c.notifiedUpTo {
		return "", nil, false
	}
	return e.plan, e.matches, true
}

// put tells the cache of a miss on q, answered at version with the encoded
// matches. On the query's first miss it records only the key; once the key
// is cached it keeps a copy of matches, unless vetted writes newer than
// version may affect pat (or the ring no longer reaches back far enough to
// tell).
func (c *queryCache) put(q string, pat *pattern.Pattern, plan string, version uint64, matches []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(q)
	if !ok {
		c.entries.Put(q, &cachedResult{pat: pat, version: version})
		return
	}
	if version < c.floor {
		return
	}
	for _, w := range c.ring {
		if w.version > version && mayAffect(pat, w.st) {
			return
		}
	}
	*e = cachedResult{pat: pat, matches: exactCopy(matches), plan: plan, version: version}
}

// exactCopy copies b into a slice with no spare capacity (bytes.Clone may
// leave some): what the result cache retains is the encoded bytes, no more.
func exactCopy(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// noteApplied vets a batch of landed statements now covered by version:
// entries any of them may affect lose their bytes and keep their key, the
// rest keep serving at the new version. A contiguity violation discards
// everything — un-notified writes went past the cache. Returns how many
// entries holding bytes were invalidated.
func (c *queryCache) noteApplied(sts []*update.Statement, version uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.notifiedUpTo+uint64(len(sts)) {
		n := 0
		c.entries.Each(func(_ string, e *cachedResult) {
			if e.matches != nil {
				n++
			}
		})
		c.entries = lru.New[string, *cachedResult](queryCacheCap)
		c.ring = c.ring[:0]
		c.notifiedUpTo, c.floor = version, version
		c.invalidated += int64(n)
		return n
	}
	v := c.notifiedUpTo
	for _, st := range sts {
		v++
		c.ring = append(c.ring, appliedWrite{st: st, version: v})
	}
	c.notifiedUpTo = version
	if n := len(c.ring) - queryCacheRingCap; n > 0 {
		c.floor = c.ring[n-1].version
		c.ring = append(c.ring[:0], c.ring[n:]...)
	}
	n := 0
	c.entries.Each(func(_ string, e *cachedResult) {
		if e.matches == nil {
			return
		}
		for _, st := range sts {
			if mayAffect(e.pat, st) {
				e.matches, e.plan = nil, ""
				n++
				return
			}
		}
	})
	c.invalidated += int64(n)
	return n
}

// mayAffect is the cache's conservative wrapper over the static
// independence test (no DTD on the serving path; nil statements come from
// unknown delta sources).
func mayAffect(p *pattern.Pattern, st *update.Statement) bool {
	if st == nil {
		return true
	}
	return independence.Check(p, st, nil) == independence.MayAffect
}
