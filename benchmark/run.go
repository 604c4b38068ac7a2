package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	"xivm/internal/client"
)

// workload fixes the shape of one run. Every workload runs the same
// sequence — set-up, read phase, write phase, (mixed_rw: concurrent phase),
// cancellation gate, recovery — so that each emits every metric; they
// differ in document size and in where the measuring time goes.
type workload struct {
	name, why     string
	docBytes      int
	pairsPerRound int // a multiple of 10; a round applies 2× this many statements and holds one checkpoint
	readsPerClass int // per round, a multiple of 24 so every round reads the same corpus slice
	// Shares of -seconds for the sequential read and write phases; what is
	// left goes to the concurrent phase (one writer, one reader).
	readShare, writeShare float64
	setups, recoveries    int // timed repeats of the single-shot measurements
}

const (
	smallDoc = 100 << 10
	largeDoc = 1 << 20
)

var workloads = []workload{
	{
		name: "write_small", why: "100KB document, updates dominate: per-statement fixed costs (HTTP, parse, WAL fsync, propagation over 7 views) are over half of an update, the epoch copy under half",
		docBytes: smallDoc, pairsPerRound: 100, readsPerClass: 240, readShare: 0.25, writeShare: 0.75, setups: 16, recoveries: 12,
	},
	{
		name: "write_large", why: "1MB document, same statements: the O(document) epoch copy, index rebuild and their GC dominate every update; where structural sharing must show",
		docBytes: largeDoc, pairsPerRound: 10, readsPerClass: 48, readShare: 0.25, writeShare: 0.75, setups: 8, recoveries: 4,
	},
	{
		name: "read_static", why: "1MB document, reads dominate and run before any write: view, tree-walk, planner (result cache always missing) and result-cache-hit reads with every cache valid",
		docBytes: largeDoc, pairsPerRound: 10, readsPerClass: 48, readShare: 0.70, writeShare: 0.30, setups: 8, recoveries: 4,
	},
	{
		name: "mixed_rw", why: "1MB document, one writer and one reader at once: writes invalidate the result cache and swap epochs under the reader, so work deferred to readers or cached harder is paid here",
		docBytes: largeDoc, pairsPerRound: 10, readsPerClass: 48, readShare: 0.12, writeShare: 0.18, setups: 8, recoveries: 4,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to a smoke test: tiny counts, two rounds a phase.
func (w workload) quick() workload {
	w.docBytes = 32 << 10
	w.pairsPerRound = 10
	w.readsPerClass = 24
	w.setups, w.recoveries = 2, 2
	return w
}

// runner drives one run of one workload.
type runner struct {
	wl      workload
	in      *inputs
	h       *harness
	ctx     context.Context
	seconds float64
	log     io.Writer

	mu          sync.Mutex // the mixed phase reports from two goroutines
	attempted   int
	failed      int
	failures    []string
	rejected429 int // ops the server bounced with 429 (they count as failed)

	pairCursor int
	reads      readStream
	gateSeen   map[string]int

	setupS, recoverS    []float64
	readRounds          []round
	writeRounds         []round
	mixedRounds         []round
	canaryMS            []float64
	canaryBuf           []byte
	replayed            []int64
	startMem, endMem    runtime.MemStats
	liveHeapMB, peakRSS float64
	probed              map[string]metric // traced runs: direct timings of layer entry points
}

func (r *runner) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail records a failed correctness gate and fails the n ops it covers.
func (r *runner) fail(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// failOp fails one op on a transport or API error. The clients do not retry,
// so a 429 backpressure rejection lands here and is counted.
func (r *runner) failOp(err error, what string) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.IsRetryable() {
		r.mu.Lock()
		r.rejected429++
		r.mu.Unlock()
	}
	r.fail(1, "%s: %v", what, err)
}

// run executes the whole workload. An error means the run could not be
// carried out at all; gate failures are counted, not returned.
func (r *runner) run() error {
	runtime.ReadMemStats(&r.startMem)
	c := r.h.newConn()
	defer c.close()

	if err := r.setup(c); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	baseDoc, err := r.h.docXML()
	if err != nil {
		return err
	}
	baseViews, err := c.viewBodies(r.ctx)
	if err != nil {
		return err
	}

	budget := func(share float64) time.Duration { return time.Duration(share * r.seconds * float64(time.Second)) }
	r.readPhase(c, budget(r.wl.readShare))
	r.writePhase(c, budget(r.wl.writeShare))
	if rest := 1 - r.wl.readShare - r.wl.writeShare; rest > 0.01 {
		r.mixedPhase(c, budget(rest))
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("wall-clock ceiling hit: %w", err)
	}

	// Every pair cancelled, so the document and every view are back where
	// they started; a mismatch fails every update applied.
	updates := r.pairCursor * 2
	if doc, err := r.h.docXML(); err != nil || doc != baseDoc {
		r.fail(updates, "document differs from its pre-load XML after %d cancelling updates (err %v)", updates, err)
	}
	r.checkViews(c, baseViews, updates, "after the last round")

	if err := r.recovery(c, baseViews); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}

	if r.h.rec != nil {
		// The probes need the final epoch, so they run before it is let go.
		r.probed = map[string]metric{}
		r.probes(func(name string, v float64, unit string) { r.probed[name] = metric{v, unit} })
	}
	// The live heap of the served database: what a collection frees once the
	// registry is shut down and let go. Taking the difference leaves out
	// whatever the benchmark itself holds, which grows with the number of
	// rounds that happened to fit into the measuring time; stopping the HTTP
	// server first leaves out connection buffers, which go when their
	// goroutines get round to it.
	c.close()
	r.h.stopListening()
	r.endMem = heapAfterGC()
	r.h.close()
	r.liveHeapMB = (float64(r.endMem.HeapAlloc) - float64(heapAfterGC().HeapAlloc)) / (1 << 20)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return r.ctx.Err()
}

func heapAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (r *runner) checkViews(c *conn, want map[string]string, covers int, when string) {
	got, err := c.viewBodies(r.ctx)
	if err != nil {
		r.fail(covers, "reading views %s: %v", when, err)
		return
	}
	for name, body := range want {
		if got[name] != body {
			r.fail(covers, "view %s differs from its reference body %s", name, when)
		}
	}
}

// setup times tenant creation: document parse, materialisation of the seven
// views and the first checkpoint. One discarded creation warms the path;
// the last one stays as the tenant every phase uses.
func (r *runner) setup(c *conn) error {
	req := client.CreateDB{Name: tenant, Document: r.in.doc, Views: benchViews()}
	for i := 0; i <= r.wl.setups; i++ {
		r.attempt(1)
		t0 := time.Now()
		if _, err := c.c.CreateDB(r.ctx, req); err != nil {
			return err
		}
		if i > 0 {
			r.setupS = append(r.setupS, time.Since(t0).Seconds())
		}
		if i < r.wl.setups {
			if err := c.c.DropDB(r.ctx, tenant); err != nil {
				return err
			}
		}
	}
	return nil
}

// phase runs one discarded warm-up round and then rounds of identical work
// until the budget is spent, two at least. On a traced run that alternates,
// odd rounds record spans and even rounds do not, which is what
// trace.overhead_ratio compares.
func (r *runner) phase(budget time.Duration, alternate bool, one func() round) []round {
	one() // warm-up: caches fill, the connection opens
	var rounds []round
	start := time.Now()
	for (len(rounds) < 2 || time.Since(start) < budget) && r.ctx.Err() == nil {
		traced := r.h.rec != nil && (!alternate || len(rounds)%2 == 1)
		if r.h.rec != nil {
			r.canary()
			r.h.rec.on.Store(traced)
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		alloc0, cpu0, before, spanLo := m.TotalAlloc, cpuMS(), r.h.counters(), r.h.rec.mark()
		rd := one()
		rd.before, rd.after, rd.cpuMS = before, r.h.counters(), cpuMS()-cpu0
		rd.spanLo, rd.spanHi = spanLo, r.h.rec.mark()
		runtime.ReadMemStats(&m)
		rd.allocBytes = m.TotalAlloc - alloc0
		rd.traced = traced
		rounds = append(rounds, rd)
	}
	if r.h.rec != nil {
		r.h.rec.on.Store(true)
	}
	return rounds
}

// canary times a fixed CPU kernel between rounds of a traced run. Its
// spread tells a noisy box from a noisy program; no metric is divided by it.
func (r *runner) canary() {
	if r.canaryBuf == nil {
		r.canaryBuf = make([]byte, 8<<20)
	}
	t0 := time.Now()
	sha256.Sum256(r.canaryBuf)
	r.canaryMS = append(r.canaryMS, float64(time.Since(t0).Nanoseconds())/1e6)
}

func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (r *runner) readPhase(c *conn, budget time.Duration) {
	r.readRounds = r.phase(budget, false, func() round { return r.readRound(c) })
	r.checkReadCounters(r.readRounds)
}

func (r *runner) writePhase(c *conn, budget time.Duration) {
	r.writeRounds = r.phase(budget, true, func() round { return r.applyPairs(c, r.wl.pairsPerRound, noop, noop) })
}

// mixedPhase runs the writer's rounds with a reader alongside on its own
// connection. The reader is paced by the writer: as each statement is sent
// the reader starts one read of every class, and the next statement waits
// until those are answered. Reads therefore always overlap a write in
// flight, a round is the same work every time (and the same as the
// sequential rounds), and the two cores are not saturated, which on a
// shared box is the difference between a measurement and a lottery.
func (r *runner) mixedPhase(wc *conn, budget time.Duration) {
	rc := r.h.newConn()
	defer rc.close()
	r.mixedRounds = r.phase(budget, true, func() round {
		var reads round
		tick, done := make(chan struct{}), make(chan struct{})
		go func() {
			for range tick {
				for range readClasses {
					r.readOne(rc, &reads, true)
				}
				done <- struct{}{}
			}
		}()
		rd := r.applyPairs(wc, r.wl.pairsPerRound, func() { tick <- struct{}{} }, func() { <-done })
		close(tick)
		rd.samples = append(rd.samples, reads.samples...)
		return rd
	})
}

func (r *runner) readRound(c *conn) round {
	var rd round
	t0 := time.Now()
	for i := 0; i < r.wl.readsPerClass*len(readClasses) && r.ctx.Err() == nil; i++ {
		r.readOne(c, &rd, false)
	}
	rd.wallS = time.Since(t0).Seconds() - rd.oracleS
	return rd
}

func (r *runner) readOne(c *conn, rd *round, underWrites bool) {
	op := r.reads.next()
	r.attempt(1)
	t0 := time.Now()
	version, body, err := c.read(r.ctx, op)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		r.failOp(err, op.class+" "+op.query)
		return
	}
	rd.samples = append(rd.samples, sample{class: op.class, ms: ms})
	if op.class != classRewrite && op.class != classHot {
		return
	}
	// Every 50th response of the classes that may be served from views or
	// from the result cache must equal the tree walk's at the same version.
	r.gateSeen[op.class]++
	if r.gateSeen[op.class]%50 != 0 {
		return
	}
	defer func(t0 time.Time) { rd.oracleS += time.Since(t0).Seconds() }(time.Now())
	for try := 0; try < 4; try++ {
		walked, err := c.walk(r.ctx, op.query)
		if err != nil {
			r.fail(50, "walk oracle %q: %v", op.query, err)
			return
		}
		if walked.Version == version {
			if canonical(body) != canonical(walked.Matches) {
				r.fail(50, "%s %q at version %d differs from the tree walk", op.class, op.query, version)
			}
			return
		}
		if !underWrites {
			r.fail(50, "%s %q: version moved from %d to %d with no writer", op.class, op.query, version, walked.Version)
			return
		}
		// A write landed in between: read again and compare at the new version.
		if version, body, err = c.read(r.ctx, op); err != nil {
			r.fail(50, "%s %q: %v", op.class, op.query, err)
			return
		}
	}
}

// checkReadCounters holds the read classes to what they claim to exercise
// on a phase with no writer: every hot read is a result-cache hit and no
// rewrite read is; every rewrite read is planned over views, a third each
// as a stitch and as an intersection.
func (r *runner) checkReadCounters(rounds []round) {
	for i, rd := range rounds {
		n := int64(r.wl.readsPerClass)
		d := func(name string) int64 { return rd.after.delta(rd.before, name) }
		if got := d("server.xpath.rewrite.cache_hit"); got != n {
			r.fail(int(n), "read round %d: %d result-cache hits, want %d (every xpath_hot read and no other)", i, got, n)
		}
		if got := d("server.xpath.rewrite.hit"); got != n {
			r.fail(int(n), "read round %d: %d reads planned over views, want %d (every xpath_rewrite read)", i, got, n)
		}
		if s, x := d("server.xpath.rewrite.stitch"), d("server.xpath.rewrite.intersect"); s != n/3 || x != n/3 {
			r.fail(int(n), "read round %d: %d stitch and %d intersect plans, want %d each", i, s, x, n/3)
		}
		if got := d("server.xpath.rewrite.miss"); got != 0 {
			r.fail(int(n), "read round %d: %d bridgeable reads fell back to the tree walk, want 0", i, got)
		}
	}
}

func noop() {}

// applyPairs applies the next n pairs of the cycle as one round, calling
// before as each statement is about to be sent and after once it is
// acknowledged.
func (r *runner) applyPairs(c *conn, n int, before, after func()) round {
	var rd round
	t0 := time.Now()
	for i := 0; i < n && r.ctx.Err() == nil; i++ {
		p := r.in.pairs[r.pairCursor%len(r.in.pairs)]
		r.pairCursor++
		for _, st := range []struct{ class, stmt string }{{"insert", p.insert}, {"delete", p.delete}} {
			before()
			r.updateOne(c, st.class, st.stmt, &rd)
			after()
		}
	}
	rd.wallS = time.Since(t0).Seconds()
	return rd
}

func (r *runner) updateOne(c *conn, class, stmt string, rd *round) {
	r.attempt(1)
	t0 := time.Now()
	targets, err := c.update(r.ctx, stmt)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		r.failOp(err, stmt)
	case targets != 1:
		r.fail(1, "%s: %d targets, want exactly 1", stmt, targets)
	default:
		rd.samples = append(rd.samples, sample{class: class, ms: ms})
	}
}

// recovery leaves a WAL tail of half a round behind the last checkpoint and
// then restarts the registry repeatedly on the same data directory; nothing
// is written in between, so every restart replays the same tail.
func (r *runner) recovery(c *conn, baseViews map[string]string) error {
	r.applyPairs(c, r.wl.pairsPerRound/2, noop, noop)
	// 7 view registrations are journaled ahead of the statements, and a
	// checkpoint falls every 2×pairsPerRound records.
	wantTail := int64((len(benchViews()) + r.pairCursor*2) % (r.wl.pairsPerRound * 2))
	for i := 0; i <= r.wl.recoveries; i++ {
		r.attempt(1)
		before := r.h.counters()
		t0 := time.Now()
		if err := r.h.restart(r.ctx); err != nil {
			return err
		}
		if _, err := c.db.View(r.ctx, readView); err != nil {
			return err
		}
		if i > 0 {
			r.recoverS = append(r.recoverS, time.Since(t0).Seconds())
		}
		replayed := r.h.counters().delta(before, "wal.recover.replayed")
		r.replayed = append(r.replayed, replayed)
		if replayed != wantTail {
			r.fail(1, "recovery %d replayed %d statements, want the fixed tail of %d", i, replayed, wantTail)
		}
		r.checkViews(c, baseViews, 1, fmt.Sprintf("after recovery %d", i))
	}
	return nil
}
