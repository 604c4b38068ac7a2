package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/rewrite"
	"xivm/internal/update"
)

// rewriteViewSpecs is an ID-complete view library sized to answer the
// rewritable corpus below with all three plan shapes.
func rewriteViewSpecs() []ViewSpec {
	return []ViewSpec{
		{Name: "RW1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
		{Name: "RW2", Pattern: `//open_auction{ID}//bidder{ID}`},
		{Name: "RW3", Pattern: `//bidder{ID}//increase{ID,val}`},
		{Name: "RW4", Pattern: `//open_auction{ID}//initial{ID,val}`},
		{Name: "RW5", Pattern: `//open_auction{ID}//increase{ID,val}`},
		{Name: "RW6", Pattern: `//person{ID}//profile{ID}`},
		{Name: "RW7", Pattern: `//person{ID}//homepage{ID}`},
		{Name: "RW8", Pattern: `//person{ID}//name{ID,val}`},
	}
}

// rewriteCorpus maps each query to the plan prefix expected under the
// library above ("" = not rewritable: tree walk both ways).
var rewriteCorpus = []struct{ query, planPrefix string }{
	{`/site/people/person/name`, "single-view rewrite over RW1"},
	{`//open_auction//increase`, "single-view rewrite over RW5"},
	{`//open_auction//bidder//increase`, "stitch of RW2 and RW3"},
	{`//open_auction[bidder]//initial`, "intersection of RW2, RW4"},
	{`//person[profile][homepage]/name`, "intersection of RW6, RW7, RW8"},
	{`//open_auction/bidder/increase`, "stitch of RW2 and RW3"},
	{`/site/people/person[1]/name`, ""}, // positional: not bridgeable
	{`//item//name/text()`, ""},         // text(): not bridgeable
	{`//person[count(watches)>=1]`, ""}, // count(): not bridgeable
	{`/site/regions//item`, "treewalk"}, // bridgeable, no covering view
}

func newRewriteRegistry(t *testing.T, m *obs.Metrics) (*Registry, *Shard) {
	t.Helper()
	if m == nil {
		m = obs.New()
	}
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: m},
		DefaultDoc:   rewriteTestDoc(),
		DefaultViews: rewriteViewSpecs(),
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
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	return reg, sh
}

// rewriteTestDoc guarantees auctions with bidders/initial and persons with
// profile+homepage so every corpus query has matches.
func rewriteTestDoc() string {
	return `<site><people>` +
		`<person id="p0"><name>Ann</name><profile><age>30</age></profile><homepage>h0</homepage></person>` +
		`<person id="p1"><name>Bob</name><profile><age>41</age></profile></person>` +
		`<person id="p2"><name>Cyd</name><homepage>h2</homepage></person>` +
		`</people><open_auctions>` +
		`<open_auction id="a0"><initial>5</initial><bidder><increase>3</increase></bidder><bidder><increase>7</increase></bidder></open_auction>` +
		`<open_auction id="a1"><initial>9</initial><bidder><increase>3</increase></bidder></open_auction>` +
		`<open_auction id="a2"><initial>2</initial></open_auction>` +
		`</open_auctions><regions><item id="i0"><name>lamp</name></item></regions></site>`
}

// respBody fetches one xpath response body as raw bytes.
func respBody(t *testing.T, base, q, extra string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/db/default/xpath?q=" + url.QueryEscape(q) + extra)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", q, resp.StatusCode, b)
	}
	return b
}

// TestRewriteCorpusDifferential is the content-level harness: for every
// corpus query the rewritten HTTP body must byte-equal the forced tree
// walk's, and explain=1 must echo the expected plan shape.
func TestRewriteCorpusDifferential(t *testing.T) {
	m := obs.New()
	reg, _ := newRewriteRegistry(t, m)
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)

	for _, c := range rewriteCorpus {
		rewritten := respBody(t, ts.URL, c.query, "")
		walked := respBody(t, ts.URL, c.query, "&rewrite=0")
		if string(rewritten) != string(walked) {
			t.Fatalf("%s: rewritten body differs from tree walk\nrewrite: %s\nwalk:    %s", c.query, rewritten, walked)
		}
		var xr XPathResponse
		if err := json.Unmarshal(rewritten, &xr); err != nil {
			t.Fatal(err)
		}
		if len(xr.Matches) == 0 && c.planPrefix != "" && c.planPrefix != "treewalk" {
			t.Fatalf("%s: rewritable corpus query matched nothing", c.query)
		}
		if xr.Plan != "" {
			t.Fatalf("%s: plan leaked into non-explain response: %q", c.query, xr.Plan)
		}
		var ex XPathResponse
		if err := json.Unmarshal(respBody(t, ts.URL, c.query, "&explain=1"), &ex); err != nil {
			t.Fatal(err)
		}
		wantPrefix := c.planPrefix
		if wantPrefix == "" {
			wantPrefix = "treewalk"
		}
		if !strings.HasPrefix(ex.Plan, wantPrefix) {
			t.Fatalf("%s: explain plan %q, want prefix %q", c.query, ex.Plan, wantPrefix)
		}
	}
	hits := m.Counter("server.xpath.rewrite.hit").Value()
	if hits == 0 {
		t.Fatal("no rewrite hits across the corpus")
	}
	if m.Counter("server.xpath.rewrite.stitch").Value() == 0 {
		t.Fatal("no stitch plans served")
	}
	if m.Counter("server.xpath.rewrite.intersect").Value() == 0 {
		t.Fatal("no intersection plans served")
	}
}

// TestRewriteResultCache pins the result cache's contract: a query's
// second miss stores its answer and later repeats hit the cache; any write
// takes the stored answer, and the query re-admits on its next miss with
// an answer equal to the tree walk's.
func TestRewriteResultCache(t *testing.T) {
	m := obs.New()
	reg, sh := newRewriteRegistry(t, m)
	const q = `/site/people/person/name`
	ctx := context.Background()

	cacheHits := m.Counter("server.xpath.rewrite.cache_hit")
	ask := func() XPathResponse {
		t.Helper()
		resp, err := reg.xpathResponse(sh, sh.Epoch(), q, true)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := ask()
	if ask(); cacheHits.Value() != 0 {
		t.Fatal("cold query hit the cache on its first or second ask")
	}
	second := ask()
	if cacheHits.Value() != 1 {
		t.Fatalf("repeat after the second miss did not hit the cache (hits=%d)", cacheHits.Value())
	}
	if len(second.Matches) != len(first.Matches) {
		t.Fatal("cached matches differ")
	}

	// A write drops the entry's answer; the recomputed answer must reflect
	// it, re-admit on this miss, and byte-match the tree walk.
	if _, _, err := sh.Apply(ctx, update.MustParse(`insert <person id="p9"><name>Zed</name></person> into /site/people`)); err != nil {
		t.Fatal(err)
	}
	if m.Counter("server.xpath.rewrite.cache_invalidate").Value() != 1 {
		t.Fatal("the write did not invalidate")
	}
	snap := sh.Epoch()
	afterWrite, err := reg.xpathResponse(sh, snap, q, true)
	if err != nil {
		t.Fatal(err)
	}
	if cacheHits.Value() != 1 {
		t.Fatal("invalidated entry still served from cache")
	}
	if again := ask(); cacheHits.Value() != 2 || len(again.Matches) != len(afterWrite.Matches) {
		t.Fatalf("the entry did not re-admit on its miss after the write (hits=%d)", cacheHits.Value())
	}
	if len(afterWrite.Matches) != len(first.Matches)+1 {
		t.Fatalf("rewritten answer missed the insert: %d matches, want %d", len(afterWrite.Matches), len(first.Matches)+1)
	}
	walked, err := reg.xpathResponse(sh, snap, q, false)
	if err != nil {
		t.Fatal(err)
	}
	afterWrite.Plan, walked.Plan = "", ""
	a, _ := json.Marshal(afterWrite)
	b, _ := json.Marshal(walked)
	if string(a) != string(b) {
		t.Fatalf("post-write rewrite differs from tree walk:\n%s\n%s", a, b)
	}
}

// TestStressRewriteVsTreeWalkUnderMutation: readers pin a snapshot and
// demand the rewritten response byte-equal the tree walk at that exact
// epoch while writers churn the document. Run under -race in CI.
func TestStressRewriteVsTreeWalkUnderMutation(t *testing.T) {
	reg, sh := newRewriteRegistry(t, nil)
	ctx := context.Background()

	writerStmts := []string{
		`insert <person><name>Churn</name><profile><age>1</age></profile><homepage>h9</homepage></person> into /site/people`,
		`for $x in /site/open_auctions/open_auction insert <bidder><increase>4</increase></bidder>`,
		`delete /site/people/person/homepage`,
		`delete /site/open_auctions/open_auction/bidder`,
		`insert <open_auction><initial>7</initial><bidder><increase>2</increase></bidder></open_auction> into /site/open_auctions`,
	}
	queries := make([]string, 0, len(rewriteCorpus))
	for _, c := range rewriteCorpus {
		queries = append(queries, c.query)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := update.MustParse(writerStmts[(seed+i)%len(writerStmts)])
				if _, _, err := sh.Apply(ctx, st); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				q := queries[(seed+i)%len(queries)]
				snap := sh.Epoch()
				rewritten, err := reg.xpathResponse(sh, snap, q, true)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				walked, err := reg.xpathResponse(sh, snap, q, false)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				rewritten.Plan, walked.Plan = "", ""
				a, _ := json.Marshal(rewritten)
				b, _ := json.Marshal(walked)
				if string(a) != string(b) {
					t.Errorf("%s at version %d: rewrite != tree walk\n%s\n%s", q, snap.Version, a, b)
					return
				}
			}
		}(rd)
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// TestResultCacheAdmitsOnSecondMiss pins the admission rule: the result
// cache copies a query's answer on its second miss, not its first, so the
// one-off queries that pass through its LRU cost no copy.
func TestResultCacheAdmitsOnSecondMiss(t *testing.T) {
	m := obs.New()
	reg, sh := newRewriteRegistry(t, m)
	ctx := context.Background()
	c := sh.qcache
	hits, invalidations := m.Counter("server.xpath.rewrite.cache_hit"), m.Counter("server.xpath.rewrite.cache_invalidate")
	ask := func(q string) {
		t.Helper()
		if _, err := reg.xpathResponse(sh, sh.Epoch(), q, true); err != nil {
			t.Fatal(err)
		}
	}
	// stored reports whether q is cached, and whether with its answer.
	stored := func(q string) (keyed, body bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		e, ok := c.entries.Get(q)
		return ok, ok && e.matches != nil
	}
	const (
		hot     = `/site/people/person/name`         // single-view plan
		once    = `//person[profile][homepage]/name` // intersection
		unrelWk = `/site/regions//item`              // bridgeable, tree walk
	)

	// A one-off read leaves its key and no bytes, planned or walked.
	for _, q := range []string{hot, once, unrelWk} {
		if ask(q); hits.Value() != 0 {
			t.Fatalf("%s: first ask hit the cache", q)
		}
		if keyed, body := stored(q); !keyed || body {
			t.Fatalf("%s after one miss: keyed %v, bytes %v; want the key alone", q, keyed, body)
		}
	}
	// A bodiless entry never serves, at any version.
	v := sh.Epoch().Version
	for _, at := range []uint64{0, v, v + 1, ^uint64(0)} {
		if _, _, ok := c.get(once, at); ok {
			t.Fatalf("bodiless entry served at version %d", at)
		}
	}
	// The second miss stores the answer; the third ask is a hit.
	if ask(hot); hits.Value() != 0 {
		t.Fatal("second ask hit the cache")
	}
	if _, body := stored(hot); !body {
		t.Fatal("second miss stored no bytes")
	}
	if ask(hot); hits.Value() != 1 {
		t.Fatalf("third ask: %d hits, want 1", hits.Value())
	}

	// A write takes hot's bytes, keeps both keys, and counts one
	// invalidation: once held none.
	if _, _, err := sh.Apply(ctx, update.MustParse(`insert <person><name>Zed</name><profile/><homepage/></person> into /site/people`)); err != nil {
		t.Fatal(err)
	}
	if got := invalidations.Value(); got != 1 {
		t.Fatalf("the write invalidated %d entries, want 1: only hot held bytes", got)
	}
	for _, q := range []string{hot, once} {
		if keyed, body := stored(q); !keyed || body {
			t.Fatalf("%s after a write: keyed %v, bytes %v; want the key alone", q, keyed, body)
		}
	}
	// The invalidated entry re-admits on its next miss, and serves after it.
	if ask(hot); hits.Value() != 1 {
		t.Fatal("invalidated entry served")
	}
	if _, body := stored(hot); !body {
		t.Fatal("invalidated entry did not re-admit on its next miss")
	}
	if ask(hot); hits.Value() != 2 {
		t.Fatalf("re-admitted entry did not serve: %d hits, want 2", hits.Value())
	}
}

// TestPlannedReadRewindsOutOfIDOrder drives both ends of the streamed
// encoding. A single-view plan over a branching view emits its rows by
// bidder before increase, so the increases of an auction with two bidders
// arrive out of ID order: the read must rewind and re-encode from the
// collected answer, and still equal the tree walk byte for byte. A plan
// whose driving order is ID order must not rewind. Either way the body's
// matches are appendRowMatches of Answer.
func TestPlannedReadRewindsOutOfIDOrder(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Shard:      Config{Metrics: obs.New()},
		DefaultDoc: rewriteTestDoc(),
		DefaultViews: append(rewriteViewSpecs(),
			ViewSpec{Name: "BI", Pattern: `//open_auction{ID}[/bidder{ID}]//increase{ID,val}`}),
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
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		query, plan string
		rewinds     bool
	}{
		{`//open_auction[bidder]//increase`, "single-view rewrite over BI", true},
		{`//open_auction//increase`, "single-view rewrite over RW5", false},
		{`//open_auction//bidder//increase`, "stitch of RW2 and RW3", false},
	} {
		snap := sh.Epoch()
		before := rewriteRewound.Load()
		// A padded query misses the result cache every time.
		rewritten, err := reg.appendXPath(nil, sh, snap, " "+c.query, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if rewound := rewriteRewound.Load() != before; rewound != c.rewinds {
			t.Fatalf("%s: rewound %v, want %v", c.query, rewound, c.rewinds)
		}
		walked, err := reg.appendXPath(nil, sh, snap, " "+c.query, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(rewritten) != string(walked) {
			t.Fatalf("%s: streamed body differs from the tree walk\nrewrite: %s\nwalk:    %s", c.query, rewritten, walked)
		}

		pat, err := bridgeQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, ok := planOverViews(snap, pat)
		if !ok || !strings.HasPrefix(plan.Explain(), c.plan) {
			t.Fatalf("%s: plan %v, want %s", c.query, plan, c.plan)
		}
		rows, _, err := rewrite.Answer(pat, viewLibrary(snap))
		if err != nil {
			t.Fatal(err)
		}
		label := pat.Nodes[pat.StoredIndexes()[0]].Label
		if streamed, collected := appendPlanMatches(nil, label, plan), appendRowMatches(nil, label, algebra.NewShape(pat), rows); string(streamed) != string(collected) {
			t.Fatalf("%s: streamed matches differ from appendRowMatches(Answer)\n%s\n%s", c.query, streamed, collected)
		}
	}
}
