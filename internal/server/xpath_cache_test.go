package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"xivm/internal/obs"
	"xivm/internal/xmark"
)

// TestXPathCacheMetrics pins the compiled-query cache's observable contract
// through the HTTP handler: first sight of a query is a miss that compiles,
// repeats are hits, and with a tiny cache a third distinct query evicts the
// least-recently-used program — all visible as server.xpath.cache.{hit,
// miss,evict} and none of it changing query results. rewrite=0 keeps the
// view-rewrite layer (and its own result cache) out of the way: this test
// pins the tree-walk compile cache alone.
func TestXPathCacheMetrics(t *testing.T) {
	old := xpathCacheSize
	xpathCacheSize = 2
	defer func() { xpathCacheSize = old }()
	m := obs.New()
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: m},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(DefaultTenant, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})

	counters := func() (hit, miss, evict int64) {
		return m.Counter("server.xpath.cache.hit").Value(),
			m.Counter("server.xpath.cache.miss").Value(),
			m.Counter("server.xpath.cache.evict").Value()
	}
	query := func(q string) XPathResponse {
		t.Helper()
		var xr XPathResponse
		if st := getJSON(t, ts.URL+"/v1/db/default/xpath?rewrite=0&q="+q, &xr); st != 200 {
			t.Fatalf("GET xpath %q: status %d", q, st)
		}
		return xr
	}

	const (
		q1 = "/site/people/person/name"
		q2 = "//person[@id]"
		q3 = "/site/regions//item"
	)

	// Cold cache: the first evaluation compiles.
	first := query(q1)
	if hit, miss, evict := counters(); hit != 0 || miss != 1 || evict != 0 {
		t.Fatalf("after first query: hit=%d miss=%d evict=%d, want 0/1/0", hit, miss, evict)
	}
	if len(first.Matches) == 0 {
		t.Fatalf("query %q matched nothing on the seed document", q1)
	}

	// Same query again: served from cache, identical results.
	second := query(q1)
	if hit, miss, evict := counters(); hit != 1 || miss != 1 || evict != 0 {
		t.Fatalf("after repeat: hit=%d miss=%d evict=%d, want 1/1/0", hit, miss, evict)
	}
	if len(second.Matches) != len(first.Matches) {
		t.Fatalf("cached program returned %d matches, interpreted-first returned %d",
			len(second.Matches), len(first.Matches))
	}
	for i := range second.Matches {
		if second.Matches[i] != first.Matches[i] {
			t.Fatalf("match %d diverged between miss and hit: %+v vs %+v",
				i, first.Matches[i], second.Matches[i])
		}
	}

	// Second distinct query fills the 2-slot cache without eviction.
	query(q2)
	if hit, miss, evict := counters(); hit != 1 || miss != 2 || evict != 0 {
		t.Fatalf("after second query: hit=%d miss=%d evict=%d, want 1/2/0", hit, miss, evict)
	}

	// Third distinct query evicts the least recently used program (q1:
	// recency order is q2, q1 after the fill above).
	query(q3)
	if hit, miss, evict := counters(); hit != 1 || miss != 3 || evict != 1 {
		t.Fatalf("after third query: hit=%d miss=%d evict=%d, want 1/3/1", hit, miss, evict)
	}

	// q1 was evicted, so it misses and recompiles — evicting q2 in turn —
	// and still returns the same rows.
	again := query(q1)
	if hit, miss, evict := counters(); hit != 1 || miss != 4 || evict != 2 {
		t.Fatalf("after re-query of evicted: hit=%d miss=%d evict=%d, want 1/4/2", hit, miss, evict)
	}
	if len(again.Matches) != len(first.Matches) {
		t.Fatalf("recompiled program returned %d matches, want %d", len(again.Matches), len(first.Matches))
	}

	// A query outside the grammar is a 400: it counts as a miss (counted
	// before the compile attempt) but never enters the cache, so nothing
	// is evicted.
	if st := getJSON(t, ts.URL+"/v1/db/default/xpath?rewrite=0&q=/site[", nil); st != 400 {
		t.Fatalf("malformed query: status %d, want 400", st)
	}
	if hit, miss, evict := counters(); hit != 1 || miss != 5 || evict != 2 {
		t.Fatalf("after malformed query: hit=%d miss=%d evict=%d, want 1/5/2", hit, miss, evict)
	}
}
