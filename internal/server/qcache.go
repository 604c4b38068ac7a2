package server

import (
	"sync"

	"xivm/internal/lru"
)

// queryCache is a per-shard XPath result cache that is right at one
// version: an entry's bytes serve only a read of the snapshot version they
// were computed at. The views are what writes keep current; a cached answer
// is a memo of one epoch, emptied when a newer one is published.
//
// An answer's bytes are kept on its query's second miss. The first miss
// leaves a bodiless entry — the key alone — which never serves; a miss
// that finds the key copies the bytes in, if they were computed at the
// newest version the cache was told of (a put that raced a publish stores
// nothing). advance takes every entry's bytes and keeps its key, so a hot
// query is stored again on its next miss, while a one-off query, which the
// LRU evicts before it comes back, costs no copy of its answer.
type queryCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *cachedResult] // by query
	newest  uint64                            // the newest version advance was told of
}

// cachedResult is one entry. Its fields change only under the cache's mutex,
// and get hands out copies of them.
type cachedResult struct {
	matches []byte // the encoded matches array, exactly sized; nil in a bodiless entry
	plan    string
	version uint64 // the snapshot version matches were computed at
}

const queryCacheCap = 128

func newQueryCache() *queryCache {
	return &queryCache{entries: lru.New[string, *cachedResult](queryCacheCap)}
}

// get returns the plan and the encoded matches cached for q, if they were
// computed at snapshot version cur. A bodiless entry never serves.
func (c *queryCache) get(q string, cur uint64) (plan string, matches []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(q)
	if !ok || e.matches == nil || e.version != cur {
		return "", nil, false
	}
	return e.plan, e.matches, true
}

// put tells the cache of a miss on q, answered at version with the encoded
// matches. On the query's first miss it records only the key; once the key
// is cached it keeps a copy of matches, if version is the newest one.
func (c *queryCache) put(q, plan string, version uint64, matches []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(q)
	if !ok {
		c.entries.Put(q, &cachedResult{})
		return
	}
	if version != c.newest {
		return
	}
	*e = cachedResult{matches: exactCopy(matches), plan: plan, version: version}
}

// exactCopy copies b into a slice with no spare capacity (bytes.Clone may
// leave some): what the result cache retains is the encoded bytes, no more.
func exactCopy(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// advance tells the cache of a version being published. A version newer
// than any before takes every entry's bytes and keeps its key; it returns
// how many entries held bytes. Any other version empties nothing.
func (c *queryCache) advance(version uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version <= c.newest {
		return 0
	}
	c.newest = version
	n := 0
	c.entries.Each(func(_ string, e *cachedResult) {
		if e.matches != nil {
			*e = cachedResult{}
			n++
		}
	})
	return n
}
