// Package lru is the repo's one least-recently-used map, under qvm.Cache and
// server.queryCache. Not safe for concurrent use: both callers hold a mutex.
package lru

import "container/list"

// Cache is a fixed-capacity map that evicts the least recently used entry.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New creates a cache holding up to capacity entries (at least one).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: max(capacity, 1), ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns key's value, marking it most recently used; a hit allocates nothing.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	return v, false
}

// Put sets key's value, most recently used, and reports whether that evicted
// the least recently used entry.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return false
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key, val})
	if evicted = c.ll.Len() > c.cap; evicted {
		c.remove(c.ll.Back())
	}
	return evicted
}

// DeleteFunc removes the entries drop reports true for and counts them.
func (c *Cache[K, V]) DeleteFunc(drop func(K, V) bool) (n int) {
	for _, el := range c.items {
		if e := el.Value.(*entry[K, V]); drop(e.key, e.val) {
			c.remove(el)
			n++
		}
	}
	return n
}

func (c *Cache[K, V]) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*entry[K, V]).key)
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }
