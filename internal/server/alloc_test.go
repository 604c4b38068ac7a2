package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// discardWriter is a ResponseWriter that keeps nothing: what a read
// allocates is then the handler's own doing, not a recorder's buffer.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestReadAllocBudget holds the three read handlers to "a read costs its
// answer": on a 100 KB XMark tenant carrying the benchmark's view library, a
// view read and a result-cache hit are an envelope and one Write out of a
// pooled buffer; an uncached walk allocates its node list; a planned rewrite
// allocates its plan, reads the views it probes where they lie, and streams
// its answer into the body without building it; a query's second miss adds
// the exactly-sized copy the result cache keeps. No class stages a copy of
// its response. Each budget is 1.5 to 2 times what this path measures;
// beside it is what the path before measured on the same test — the
// struct-staging, reflective encoder, for a planned read the collected
// answer and the copy the cache kept on every miss, and for a join the row
// headers of the view it probed, copied per read — so a budget fails if
// per-row strings, wire-struct slices, answer rows, full-width join rows or
// copied sides come back, or if a one-off query's answer is copied again. The figure held to the budget is the cheapest of 32
// reads, the one that found every pool warm: a read that finds one empty
// regrows a buffer, which sync.Pool makes happen after the goroutine moves
// to another P and, under the race detector, on a quarter of all Puts by
// design — noise that only ever adds, where a regression adds to every read.
func TestReadAllocBudget(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Shard:      Config{Metrics: obs.New()},
		DefaultDoc: xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 2011}),
		DefaultViews: []ViewSpec{
			{Name: "Q1", Pattern: xmark.View("Q1").String()},
			{Name: "Q2", Pattern: xmark.View("Q2").String()},
			{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
			{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
			{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
			{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
			{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(DefaultTenant, "", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	h := reg.Handler()

	const runs = 32
	xpath := func(q, extra string) string {
		return "/v1/db/default/xpath?q=" + url.QueryEscape(q) + extra
	}
	// padded makes every request of a class a distinct cache key for the
	// same query, so the planner runs each time (the benchmark's trick).
	padded := func(q string) func(i int) string {
		return func(i int) string { return xpath(strings.Repeat(" ", 1+i)+q, "") }
	}
	fixed := func(target string) func(int) string { return func(int) string { return target } }
	// trailing pads on the right, so its strings are not padded's.
	trailing := func(q string) func(i int) string {
		return func(i int) string { return xpath(q+strings.Repeat(" ", 1+i), "") }
	}

	for _, c := range []struct {
		name     string
		target   func(i int) string
		misses   int // unmeasured reads of each request before its measured one
		budgetKB float64
	}{
		{"view", fixed("/v1/db/default/views/Q2"), 0, 2},                          // measures 0.1; was 26.2
		{"cache-hit", fixed(xpath(`//open_auction//bidder//increase`, "")), 1, 1}, // measures 0.5; was 1.4
		{"walk", fixed(xpath(`//open_auction//increase`, "&rewrite=0")), 0, 4},    // measures 1.4; was 24.7
		{"rewrite-single", padded(`//open_auction//increase`), 0, 4},              // measures 2.2; was 21.0
		{"rewrite-stitch", padded(`//open_auction//bidder//increase`), 0, 5},      // measures 3.2; was 6.4, 25.8
		{"rewrite-intersect", padded(`//open_auction[bidder]//initial`), 0, 6},    // measures 3.8; was 7.0, 17.2
		{"rewrite-admit", trailing(`//open_auction//increase`), 1, 20},            // measures 11.6; was 21.0
	} {
		reqs := make([]*http.Request, runs+1)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, c.target(i), nil)
		}
		for range c.misses {
			for _, req := range reqs {
				h.ServeHTTP(&discardWriter{h: http.Header{}}, req)
			}
		}
		w := &discardWriter{h: http.Header{}}
		serve := func(req *http.Request) {
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, w.status)
			}
		}
		serve(reqs[runs]) // prime: compile cache, result cache, buffer pool
		cheapest := ^uint64(0)
		var before, after runtime.MemStats
		for _, req := range reqs[:runs] {
			runtime.ReadMemStats(&before)
			serve(req)
			runtime.ReadMemStats(&after)
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		}
		kb := float64(cheapest) / 1024
		t.Logf("%-18s %5.1f KB/op for a %4.1f KB body (budget %v KB)", c.name, kb, float64(w.n)/1024, c.budgetKB)
		if kb > c.budgetKB {
			t.Errorf("%s read allocates %.1f KB/op, budget %v KB", c.name, kb, c.budgetKB)
		}
	}
}

// TestUnmarshalAllocBudget holds the decoder alone to "a decode costs its
// result": json.Unmarshal of a 100 KB xpath body into an XPathResponse
// allocates the matches slice and one arena of the response's strings —
// every ID and value, the one label once — with a quarter to spare for
// size classes and encoding/json's own decode state, and nothing for the
// body, which it neither copies nor keeps. This path measures 112.2 KB;
// with UnmarshalJSON's copy of the body and strings aliasing it, 161.5 KB;
// the reflective decoder before that, 195.9 KB.
func TestUnmarshalAllocBudget(t *testing.T) {
	nodes := make([]*xmltree.Node, 1100)
	for i := range nodes {
		value := "12.50"
		if i%8 == 0 {
			value = "<b>&\"</b>"
		}
		id := dewey.NewRoot("site").Child("open_auctions", dewey.OrdAt(3)).Child("open_auction", dewey.OrdAt(i)).Child("increase", dewey.OrdAt(1))
		nodes[i] = xmltree.NewNode(xmltree.Text, "increase", value)
		nodes[i].SetID(id)
	}
	const tenant, query = "bench", "//open_auction//increase"
	body := appendXPathHead(nil, &core.Snapshot{Tenant: tenant, Version: 7}, query, "", false)
	body = append(appendNodeMatches(body, nodes), xpathTail...)
	strs := len(tenant) + len(query) + len("increase")
	for _, n := range nodes {
		strs += len(n.ID().String()) + len(n.Value())
	}
	result := len(nodes)*int(unsafe.Sizeof(MatchJSON{})) + strs
	budget := uint64(result) * 5 / 4

	cheapest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 32; i++ {
		var xr XPathResponse
		runtime.ReadMemStats(&before)
		err := json.Unmarshal(body, &xr)
		runtime.ReadMemStats(&after)
		if err != nil || len(xr.Matches) != len(nodes) || xr.Matches[8].Value != nodes[8].Value() {
			t.Fatalf("decoded %d of %d matches (err %v)", len(xr.Matches), len(nodes), err)
		}
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%.1f KB/op for a %.1f KB body and a %.1f KB result, %.1f KB of it strings (budget %.1f KB)",
		float64(cheapest)/1024, float64(len(body))/1024, float64(result)/1024, float64(strs)/1024, float64(budget)/1024)
	if cheapest > budget {
		t.Errorf("decoding a %d-byte body into %d bytes of result allocates %d bytes, budget %d", len(body), result, cheapest, budget)
	}
}
