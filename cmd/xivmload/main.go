// Command xivmload generates load against a running xivm multi-tenant
// serving API (xivm -listen) and reports per-class throughput, latency,
// and error mix — the measurement companion to the serving layer the way
// xivmbench is to the maintenance engine. It is built on the typed
// internal/client package.
//
// Usage:
//
//	xivmload -addr http://localhost:8080 [-tenants 4] [-readers 8] [-writers 2] [-duration 10s]
//	xivmload -selfserve [-tenants 8] [-scale 1] [-burst 32] [-max-batch 32] …
//	xivmload -addr http://leader:8080 -follower-url http://follower:8081 …
//
// With -follower-url the read fraction targets a read-only follower
// (xivm -follow) while writes go to the leader at -addr; the report then
// splits latency per target and includes the maximum replication lag (in
// LSNs) sampled from the follower's repl/status during the run. -verify in
// this mode waits for the follower to converge before asserting.
//
// With -tenants N the tool creates databases t0…tN-1 through the admin
// plane (existing ones are reused) and spreads readers and writers across
// them round-robin; with -tenants 0 it targets whatever databases the
// server already has. Readers mix view queries (discovered per database)
// and XPath queries per -xpath-frac (default 0.5; 1 is an all-XPath run
// against the compiled-query cache); writers cycle update statements
// (-stmt, or a built-in XMark mix), counting 429 backpressure rejections
// separately
// from hard failures. -selfserve starts an in-process registry seeded
// with a generated XMark default document on an ephemeral localhost port
// first — the CI smoke mode, exercising the full HTTP stack with no
// external setup. -verify follows the load with a read-your-writes and
// cross-tenant isolation probe: a uniquely tagged element is inserted
// into each database and must be visible there — and only there.
//
// The exit status is non-zero if any hard error occurred (connection
// failures, 5xx, malformed responses, a failed -verify probe), so a
// smoke run doubles as a check.
//
// -burst N switches writers to bursty submission: each database gets one
// burst writer that first grows N distinct insertion parents and then fires
// N concurrent single-insert updates per wave, waiting for every ack before
// the next wave. The statements in a wave target distinct nodes, so the
// serving shard's planner translates a drained wave into one combined delta
// — the mode EXPERIMENTS.md uses to demonstrate amortized batch
// propagation. -max-batch (with -selfserve) sets the shard's batch cap; 1
// disables batching for a like-for-like per-statement baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xivm/internal/client"
	"xivm/internal/server"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmark"
	"xivm/internal/xpath"
)

type stmtFlag []string

func (m *stmtFlag) String() string     { return strings.Join(*m, "; ") }
func (m *stmtFlag) Set(s string) error { *m = append(*m, s); return nil }

// defaultStatements is a balanced XMark update mix: inserts and deletes
// roughly cancel so a long run does not grow the document unboundedly.
var defaultStatements = []string{
	`insert <person id="pload"><name>Load Person</name><phone>+1 555 0101</phone></person> into /site/people`,
	`for $x in /site/open_auctions/open_auction insert <bidder><date>03/03/2021</date><increase>3.00</increase></bidder>`,
	`delete /site/people/person/phone`,
	`delete /site/open_auctions/open_auction/bidder`,
}

// defaultQueries spans the widened query surface — child spines,
// descendant scans, predicate filters (existence, count, string functions),
// positional steps and sibling axes — so a load run exercises every shape
// the server's compiled-query cache serves.
var defaultQueries = []string{
	`/site/people/person/name`,
	`/site/open_auctions/open_auction/bidder/increase`,
	`//open_auction//increase`,
	`//person[profile][homepage]/name`,
	`//open_auction[count(bidder)>=2]/initial`,
	`/site/open_auctions/open_auction/bidder[1]/increase`,
	`//bidder/following-sibling::current`,
	`//person[starts-with(@id,'person1')]`,
	// Served by the view-rewrite layer when the R-views below cover them:
	// a two-view stitch and a root intersection.
	`//open_auction//bidder//increase`,
	`//open_auction[bidder]//initial`,
}

// selfserveRewriteViews is the ID-complete library -selfserve registers
// alongside the paper's Q1/Q2, sized so the default query mix exercises
// all three rewrite plan shapes (single, stitch, intersection).
var selfserveRewriteViews = []server.ViewSpec{
	{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
	{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
	{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
	{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
	{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
}

// opStats aggregates one operation class with lock-free hot-path updates.
type opStats struct {
	count    atomic.Int64
	rejected atomic.Int64 // 429 backpressure (writers only)
	errors   atomic.Int64
	totalNS  atomic.Int64
	maxNS    atomic.Int64
}

func (s *opStats) observe(d time.Duration) {
	ns := d.Nanoseconds()
	s.count.Add(1)
	s.totalNS.Add(ns)
	for {
		cur := s.maxNS.Load()
		if ns <= cur || s.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func (s *opStats) report(w *strings.Builder, name string, elapsed time.Duration) {
	n := s.count.Load()
	var mean time.Duration
	if n > 0 {
		mean = time.Duration(s.totalNS.Load() / n)
	}
	fmt.Fprintf(w, "%-8s %8d ok  %8.1f/s  mean %-10v max %-10v",
		name, n, float64(n)/elapsed.Seconds(), mean, time.Duration(s.maxNS.Load()))
	if r := s.rejected.Load(); r > 0 {
		fmt.Fprintf(w, "  %d rejected (429)", r)
	}
	if e := s.errors.Load(); e > 0 {
		fmt.Fprintf(w, "  %d ERRORS", e)
	}
	w.WriteByte('\n')
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xivmload:", err)
		os.Exit(1)
	}
}

func run() error {
	var stmts stmtFlag
	var queries stmtFlag
	addr := flag.String("addr", "", "base URL of a running xivm -listen server (e.g. http://localhost:8080)")
	selfserve := flag.Bool("selfserve", false, "start an in-process multi-tenant server seeded with a generated XMark default document instead of targeting -addr")
	scale := flag.Uint64("scale", 1, "-selfserve: XMark small-document scale factor")
	tenants := flag.Int("tenants", 0, "create databases t0…tN-1 via the admin plane and spread load across them (0: use the server's existing databases)")
	readers := flag.Int("readers", 8, "concurrent reader goroutines")
	writers := flag.Int("writers", 2, "concurrent writer goroutines")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	burst := flag.Int("burst", 0, "bursty writers: one writer per database fires N concurrent distinct-target inserts per wave and waits for every ack (0: steady -writers mix)")
	maxBatch := flag.Int("max-batch", 0, "-selfserve: shard batch cap (0: server default 32; 1: disable batching)")
	verify := flag.Bool("verify", false, "after load, probe each database for read-your-writes and cross-tenant isolation")
	followerURL := flag.String("follower-url", "", "direct the read fraction at this read-only follower while writes go to the leader at -addr; reports per-target latency and the max replication lag observed")
	xpathFrac := flag.Float64("xpath-frac", 0.5, "fraction of reads that are XPath queries rather than view reads (0..1)")
	flag.Var(&stmts, "stmt", "update statement for writers (repeatable; default: built-in XMark mix)")
	flag.Var(&queries, "xpath", "XPath query for readers (repeatable; default: built-in XMark queries)")
	flag.Parse()
	if len(stmts) == 0 {
		stmts = defaultStatements
	}
	if len(queries) == 0 {
		queries = defaultQueries
	}
	for _, s := range stmts {
		if _, err := update.Parse(s); err != nil {
			return fmt.Errorf("-stmt %q: %w", s, err)
		}
	}
	for _, q := range queries {
		if _, err := xpath.Parse(q); err != nil {
			return fmt.Errorf("-xpath %q: %w", q, err)
		}
	}
	if *xpathFrac < 0 || *xpathFrac > 1 {
		return fmt.Errorf("-xpath-frac %v out of range [0,1]", *xpathFrac)
	}
	xpathPercent := int(*xpathFrac * 100)
	if *selfserve && *tenants == 0 {
		*tenants = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *addr
	if *selfserve {
		var defaultViews []server.ViewSpec
		for _, name := range []string{"Q1", "Q2"} {
			defaultViews = append(defaultViews, server.ViewSpec{Name: name, Pattern: xmark.View(name).String()})
		}
		defaultViews = append(defaultViews, selfserveRewriteViews...)
		reg, err := server.NewRegistry(server.RegistryConfig{
			Shard:        server.Config{MaxBatch: *maxBatch},
			DefaultDoc:   xmark.GenerateSmall(*scale, 0),
			DefaultViews: defaultViews,
			WAL:          wal.Options{},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: reg.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer func() {
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = hs.Shutdown(dctx)
			_ = reg.Shutdown(dctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Printf("self-serving on %s\n", base)
	}
	if base == "" {
		return fmt.Errorf("-addr or -selfserve required")
	}

	// Two clients: readers retry 429s transparently (there should be none),
	// writers surface them so backpressure is counted, not hidden. With
	// -follower-url the readers target the follower instead — writes (and
	// the admin plane) always address the leader.
	readBase := base
	if *followerURL != "" {
		readBase = strings.TrimRight(*followerURL, "/")
	}
	leader := client.New(base)
	rc := client.New(readBase)
	wc := client.New(base, client.WithRetries(0))
	dbNames, err := resolveTargets(ctx, leader, *tenants)
	if err != nil {
		return err
	}
	targets := make([]target, 0, len(dbNames))
	for _, name := range dbNames {
		vr, err := leader.DB(name).Views(ctx)
		if err != nil {
			return fmt.Errorf("db %s: %w", name, err)
		}
		t := target{name: name, read: rc.DB(name), write: wc.DB(name)}
		for _, v := range vr.Views {
			t.views = append(t.views, v.Name)
		}
		targets = append(targets, t)
	}
	if *followerURL != "" {
		// A freshly started follower attaches tenants as its tailers finish
		// snapshot-first catch-up; wait until every target serves reads.
		if err := waitFollower(ctx, rc, dbNames, 15*time.Second); err != nil {
			return err
		}
		fmt.Printf("reads → %s (follower), writes → %s (leader)\n", readBase, base)
	}
	fmt.Printf("targeting %s: %d databases (%s), %d readers, %d writers, %v\n",
		base, len(targets), strings.Join(dbNames, " "), *readers, *writers, *duration)

	if *burst > 0 {
		// Grow the distinct insertion parents each burst wave targets, so a
		// wave never trips the planner's same-target conflict rule.
		for _, t := range targets {
			for j := 0; j < *burst; j++ {
				if _, err := leader.DB(t.name).Update(ctx, fmt.Sprintf(`insert <bp%d/> into /site/people`, j)); err != nil {
					return fmt.Errorf("burst setup %s: %w", t.name, err)
				}
			}
		}
	}

	var readStats, xpathStats, writeStats opStats
	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	var wg sync.WaitGroup
	var maxLag atomic.Int64
	if *followerURL != "" {
		// Sample the follower's replication position throughout the run; the
		// max of (leader tip − applied) over all targets is the lag a reader
		// could actually have observed.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				for _, name := range dbNames {
					st, err := rc.DB(name).ReplStatus(runCtx)
					if err == nil && st.LastLSN > st.AppliedLSN {
						if lag := int64(st.LastLSN - st.AppliedLSN); lag > maxLag.Load() {
							maxLag.Store(lag)
						}
					}
				}
				select {
				case <-runCtx.Done():
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}
	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; runCtx.Err() == nil; i++ {
				t := targets[i%len(targets)]
				// The read mix follows -xpath-frac deterministically: of
				// every 100 iterations, the first xpathPercent go to XPath.
				if i%100 >= xpathPercent && len(t.views) > 0 {
					readView(runCtx, t, t.views[i%len(t.views)], &readStats)
				} else {
					readXPath(runCtx, t, queries[i%len(queries)], &xpathStats)
				}
			}
		}(r)
	}
	switch {
	case *burst > 0:
		// One burst writer per database: N concurrent distinct-target
		// inserts per wave, every ack collected before the next wave, so
		// the shard's queue holds a whole translatable batch at once.
		for _, t := range targets {
			wg.Add(1)
			go func(t target) {
				defer wg.Done()
				for runCtx.Err() == nil {
					var bw sync.WaitGroup
					for j := 0; j < *burst; j++ {
						bw.Add(1)
						go func(j int) {
							defer bw.Done()
							writeUpdate(runCtx, t, fmt.Sprintf(`insert <c/> into /site/people/bp%d`, j), &writeStats)
						}(j)
					}
					bw.Wait()
				}
			}(t)
		}
	default:
		for w := 0; w < *writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; runCtx.Err() == nil; i++ {
					writeUpdate(runCtx, targets[i%len(targets)], stmts[i%len(stmts)], &writeStats)
				}
			}(w)
		}
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	var b strings.Builder
	fmt.Fprintf(&b, "\n%v elapsed\n", elapsed.Round(time.Millisecond))
	if *followerURL != "" {
		fmt.Fprintf(&b, "reads (follower %s):\n", readBase)
	}
	readStats.report(&b, "views", elapsed)
	xpathStats.report(&b, "xpath", elapsed)
	if *followerURL != "" {
		fmt.Fprintf(&b, "writes (leader %s):\n", base)
	}
	writeStats.report(&b, "updates", elapsed)
	if *followerURL != "" {
		fmt.Fprintf(&b, "max observed replication lag: %d LSN(s)\n", maxLag.Load())
	}
	reportRewrite(ctx, &b, base)
	fmt.Print(b.String())

	if n := readStats.errors.Load() + xpathStats.errors.Load() + writeStats.errors.Load(); n > 0 {
		return fmt.Errorf("%d request(s) failed", n)
	}
	if readStats.count.Load()+xpathStats.count.Load() == 0 || writeStats.count.Load() == 0 {
		return fmt.Errorf("no load generated (reads %d, writes %d)",
			readStats.count.Load()+xpathStats.count.Load(), writeStats.count.Load())
	}
	if *verify {
		var converge time.Duration
		if *followerURL != "" {
			// Read-your-writes does not hold across the replication boundary;
			// give the follower a convergence window before asserting.
			converge = 15 * time.Second
		}
		if err := verifyIsolation(ctx, leader, rc, dbNames, converge); err != nil {
			return err
		}
		fmt.Printf("verified: read-your-writes and isolation across %d databases\n", len(dbNames))
	}
	return nil
}

// reportRewrite fetches the server's /v1/metrics and summarizes how the
// XPath read mix was actually served: view-rewrite hits vs tree-walk
// misses, the plan-shape split, and the result cache's hit/invalidation
// balance. Best-effort — an older server without these counters just
// reports nothing.
func reportRewrite(ctx context.Context, b *strings.Builder, base string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return
	}
	c := map[string]int64{}
	for _, cs := range snap.Counters {
		c[cs.Name] = cs.Value
	}
	hits, misses := c["server.xpath.rewrite.hit"], c["server.xpath.rewrite.miss"]
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(b, "xpath serving: %d view-rewritten (%.1f%%), %d tree-walked; plans %d stitch / %d intersect\n",
		hits, 100*float64(hits)/float64(hits+misses), misses,
		c["server.xpath.rewrite.stitch"], c["server.xpath.rewrite.intersect"])
	fmt.Fprintf(b, "result cache: %d hits, %d entries emptied by newer epochs\n",
		c["server.xpath.rewrite.cache_hit"], c["server.xpath.rewrite.cache_invalidate"])
}

// waitFollower polls the follower until every target database is attached
// and serving reads (its tailer finished snapshot-first catch-up).
func waitFollower(ctx context.Context, rc *client.Client, names []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, name := range names {
		for {
			if _, err := rc.DB(name).Views(ctx); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("follower never attached db %s: %w", name, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

type target struct {
	name  string
	views []string
	read  *client.DB
	write *client.DB
}

// resolveTargets creates t0…tN-1 through the admin plane (tolerating ones
// that already exist) or, with n == 0, discovers the server's databases.
func resolveTargets(ctx context.Context, c *client.Client, n int) ([]string, error) {
	if n == 0 {
		stats, err := c.ListDBs(ctx)
		if err != nil {
			return nil, err
		}
		if len(stats) == 0 {
			return nil, fmt.Errorf("server has no databases (pass -tenants N to create some)")
		}
		names := make([]string, 0, len(stats))
		for _, st := range stats {
			names = append(names, st.Name)
		}
		return names, nil
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		_, err := c.CreateDB(ctx, client.CreateDB{Name: name})
		var apiErr *client.APIError
		if err != nil && !(errors.As(err, &apiErr) && apiErr.Code == server.CodeDBExists) {
			return nil, fmt.Errorf("create db %s: %w", name, err)
		}
		names = append(names, name)
	}
	return names, nil
}

// verifyIsolation inserts a uniquely tagged element into every database via
// wc (the leader), then checks read-your-writes (the tag is visible where
// written) and cross-tenant isolation (it is visible nowhere else) via rc —
// the same server, or a follower given a convergence window first.
func verifyIsolation(ctx context.Context, wc, rc *client.Client, names []string, converge time.Duration) error {
	probe := func(name string) string { return fmt.Sprintf("/site/probe-%s", name) }
	for _, name := range names {
		stmt := fmt.Sprintf(`insert <probe-%s/> into /site`, name)
		if _, err := wc.DB(name).Update(ctx, stmt); err != nil {
			return fmt.Errorf("verify %s: %w", name, err)
		}
	}
	if converge > 0 {
		deadline := time.Now().Add(converge)
		for _, name := range names {
			for {
				xr, err := rc.DB(name).XPath(ctx, probe(name))
				if err == nil && len(xr.Matches) == 1 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("verify %s: probe never converged on the follower", name)
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(50 * time.Millisecond):
				}
			}
		}
	}
	for _, name := range names {
		for _, other := range names {
			xr, err := rc.DB(name).XPath(ctx, probe(other))
			if err != nil {
				return fmt.Errorf("verify %s: %w", name, err)
			}
			if other == name && len(xr.Matches) != 1 {
				return fmt.Errorf("verify %s: wrote probe, read %d matches (want 1)", name, len(xr.Matches))
			}
			if other != name && len(xr.Matches) != 0 {
				return fmt.Errorf("verify %s: sees %d probe(s) written to %s (want 0)", name, len(xr.Matches), other)
			}
			if xr.Tenant != name {
				return fmt.Errorf("verify %s: response stamped tenant %q", name, xr.Tenant)
			}
		}
	}
	return nil
}

func readView(ctx context.Context, t target, name string, st *opStats) {
	t0 := time.Now()
	if _, err := t.read.View(ctx, name); err != nil {
		countErr(ctx, st)
		return
	}
	st.observe(time.Since(t0))
}

func readXPath(ctx context.Context, t target, q string, st *opStats) {
	t0 := time.Now()
	if _, err := t.read.XPath(ctx, q); err != nil {
		countErr(ctx, st)
		return
	}
	st.observe(time.Since(t0))
}

func writeUpdate(ctx context.Context, t target, stmt string, st *opStats) {
	t0 := time.Now()
	if _, err := t.write.Update(ctx, stmt); err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.IsRetryable() {
			// Backpressure is the designed behavior under overload, not an
			// error: count it and back off briefly.
			st.rejected.Add(1)
			time.Sleep(time.Millisecond)
			return
		}
		countErr(ctx, st)
		return
	}
	st.observe(time.Since(t0))
}

// countErr records a hard failure unless it is just the run deadline
// cancelling an in-flight request.
func countErr(ctx context.Context, st *opStats) {
	if ctx.Err() != nil {
		return
	}
	st.errors.Add(1)
}
