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
	if n := c.DeleteFunc(func(k string, _ int) bool { return k == "a" }); n != 1 || c.Len() != 1 {
		t.Fatalf("DeleteFunc removed %d, len %d; want 1, 1", n, c.Len())
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("DeleteFunc removed an entry it was not asked to")
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
