package qvm

import (
	"sync"

	"xivm/internal/lru"
)

// Cache is a thread-safe LRU of compiled programs keyed by query string.
// Programs are immutable and snapshots are immutable, so cached programs
// never need invalidation: a hit is always safe to run, against any epoch.
// Keying by the raw query string means a hit also skips the parse.
type Cache struct {
	mu    sync.Mutex
	progs *lru.Cache[string, *Program]
}

// NewCache creates an LRU cache holding up to capacity programs
// (a capacity below 1 is raised to 1).
func NewCache(capacity int) *Cache {
	return &Cache{progs: lru.New[string, *Program](capacity)}
}

// Get returns the cached program for the query, marking it most recently
// used.
func (c *Cache) Get(query string) (*Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progs.Get(query)
}

// Add inserts a program, evicting the least recently used entry when full.
// It reports whether an eviction happened.
func (c *Cache) Add(query string, prog *Program) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progs.Put(query, prog)
}
