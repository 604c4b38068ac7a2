package lru

import "testing"

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // a is now the most recent
		t.Fatal("a missing")
	}
	if evicted := c.Put("c", 3); !evicted {
		t.Fatal("third entry in a 2-entry cache evicted nothing")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived though a was used more recently")
	}
	if c.Put("a", 10) {
		t.Fatal("replacing a value evicted an entry")
	}
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Fatalf("a = %d, len %d; want 10, 2", v, c.Len())
	}
	seen := map[string]int{}
	c.Each(func(k string, v int) { seen[k] = v })
	if len(seen) != 2 || seen["a"] != 10 || seen["c"] != 3 {
		t.Fatalf("Each saw %v; want a=10 and c=3", seen)
	}
	if !c.Put("d", 4) {
		t.Fatal("third entry in a 2-entry cache evicted nothing")
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived though a was used more recently: Each moved an entry")
	}
}

// The benchmark gates alloc_kb_per_read at 2%: a hit must stay free.
func TestHitDoesNotAllocate(t *testing.T) {
	c := New[string, *int](4)
	c.Put("q", new(int))
	if n := testing.AllocsPerRun(100, func() { c.Get("q") }); n != 0 {
		t.Fatalf("Get on a hit allocates %v times", n)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }
