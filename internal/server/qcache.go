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
// Correctness rests on two version invariants, both guarded by mu:
//
//   - notifiedUpTo: every engine version up to and including it has been
//     vetted against the cache (entries a write may affect were dropped as
//     it landed). A lookup at snapshot version V serves an entry only when
//     entry.version <= V <= notifiedUpTo: anything newer than the vetted
//     range might invalidate silently. The engine's OnApplied contract
//     makes gaps detectable — a notification whose version does not equal
//     notifiedUpTo plus its statement count means un-vetted writes landed
//     (recomputation repair, direct PUL application), and the
//     whole cache is discarded.
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
	invalidated  int64  // cumulative entries dropped by deltas (for tests)
}

type cachedResult struct {
	query   string
	pat     *pattern.Pattern
	matches []byte // the encoded matches array, exactly sized
	plan    string
	version uint64
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

// get returns the cached result for q valid at snapshot version cur.
func (c *queryCache) get(q string, cur uint64) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(q)
	if !ok || e.version > cur || cur > c.notifiedUpTo {
		return nil, false
	}
	return e, true
}

// put inserts a result computed at e.version, unless vetted writes newer
// than that version may affect its pattern (or the ring no longer reaches
// back far enough to tell).
func (c *queryCache) put(e *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.version < c.floor {
		return
	}
	for _, w := range c.ring {
		if w.version > e.version && mayAffect(e.pat, w.st) {
			return
		}
	}
	c.entries.Put(e.query, e)
}

// noteApplied vets a batch of landed statements now covered by version:
// entries any of them may affect are dropped, the rest keep serving at the
// new version. A contiguity violation discards everything — un-notified
// writes went past the cache. Returns how many entries were invalidated.
func (c *queryCache) noteApplied(sts []*update.Statement, version uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.notifiedUpTo+uint64(len(sts)) {
		n := c.entries.Len()
		c.dropAllLocked(version)
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
	dropped := c.entries.DeleteFunc(func(_ string, e *cachedResult) bool {
		for _, st := range sts {
			if mayAffect(e.pat, st) {
				return true
			}
		}
		return false
	})
	c.invalidated += int64(dropped)
	return dropped
}

// dropAll empties the cache and restarts the vetted range at version —
// used when the shard repaired its engine outside the delta stream.
func (c *queryCache) dropAll(version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropAllLocked(version)
}

func (c *queryCache) dropAllLocked(version uint64) {
	c.entries = lru.New[string, *cachedResult](queryCacheCap)
	c.ring = c.ring[:0]
	c.notifiedUpTo = version
	c.floor = version
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
