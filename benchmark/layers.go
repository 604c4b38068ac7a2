package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"xivm/internal/core"
	"xivm/internal/independence"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/rewrite"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// The per-layer metrics of a traced run. Three sources, all on the
// benchmark's side of public seams: the recorded spans, deltas of the
// program's own counters and histograms across rounds, and direct timed
// calls into layer entry points on the final epoch's document (probes).

// sumRounds adds f over rounds.
func sumRounds(rounds []round, f func(round) float64) float64 {
	var s float64
	for _, x := range rounds {
		s += f(x)
	}
	return s
}

func counterSum(rounds []round, name string) float64 {
	return sumRounds(rounds, func(x round) float64 { return float64(x.after.delta(x.before, name)) })
}

func histSum(rounds []round, name string) float64 {
	return sumRounds(rounds, func(x round) float64 { return x.after.histMS(x.before, name) })
}

func opCount(rounds []round, classes ...string) float64 {
	return sumRounds(rounds, func(x round) float64 { return float64(len(pool(x.samples, classes...))) })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func onlyTraced(rounds []round, traced bool) []round {
	var out []round
	for _, x := range rounds {
		if x.traced == traced {
			out = append(out, x)
		}
	}
	return out
}

func (r *runner) layerMetrics() map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	updateClasses := []string{"insert", "delete"}

	writes := r.timedRounds(r.writeRounds)
	reads := r.timedRounds(r.readRounds)
	tw := onlyTraced(writes, true) // spans exist for these rounds only
	updates := opCount(tw, updateClasses...)

	// client: what the caller saw, tails included.
	put("client.update_ms", mean(latencies(pooled(writes, updateClasses...))), "ms")
	put("client.view_ms", mean(latencies(pooled(reads, classView))), "ms")
	put("client.xpath_ms", mean(latencies(pooled(reads, classWalk, classRewrite, classHot))), "ms")
	put("client.update_p99_ms", percentile(latencies(pooled(writes, updateClasses...)), 0.99), "ms")
	put("client.read_p99_ms", percentile(latencies(pooled(reads, readClasses...)), 0.99), "ms")
	put("client.retries_429", float64(r.rejected429), "count")

	// The blocking path of an update, from the traced write rounds: the
	// client span holds the journal's file I/O, the engine's apply span and
	// the publish; what is left is HTTP, JSON, statement parsing and queue.
	var lt layerTimes
	for _, x := range tw {
		lt.add(r.h.rec.layerTimes(x.spanLo, x.spanHi))
	}
	clientMS := ratio(lt.clientMS, updates)
	applyMS := ratio(histSum(tw, "server.apply.latency"), updates)
	publishMS := ratio(histSum(tw, "snapshot.publish"), updates)
	put("server.apply_ms", applyMS, "ms")
	put("server.publish_ms", publishMS, "ms")
	put("server.http_queue_self_ms", clientMS-applyMS-publishMS, "ms")
	viewMS := ratio(histSum(reads, "server.query.latency"), opCount(reads, classView))
	put("server.view_http_self_ms", mean(latencies(pooled(reads, classView)))-viewMS, "ms")
	put("server.qcache.hit_ratio", ratio(counterSum(reads, "server.xpath.rewrite.cache_hit"), opCount(reads, classHot)), "ratio")
	put("server.qcache.invalidated_per_update", ratio(counterSum(writes, "server.xpath.rewrite.cache_invalidate"), opCount(writes, updateClasses...)), "count")
	progHit, progMiss := counterSum(reads, "server.xpath.cache.hit"), counterSum(reads, "server.xpath.cache.miss")
	put("server.progcache.hit_ratio", ratio(progHit, progHit+progMiss), "ratio")
	rwHit, rwMiss := counterSum(reads, "server.xpath.rewrite.hit"), counterSum(reads, "server.xpath.rewrite.miss")
	put("server.rewrite.hit_ratio", ratio(rwHit, rwHit+rwMiss), "ratio")
	put("server.batch.fallbacks", float64(r.h.counters().c["server.batch.fallbacks"]), "count")

	put("wal.write_ms_per_update", ratio(lt.logWriteMS, updates), "ms")
	put("wal.fsync_ms_per_update", ratio(lt.logFsyncMS, updates), "ms")
	put("wal.fsyncs_per_update", ratio(float64(lt.logFsyncs), updates), "count")
	put("wal.bytes_per_update", ratio(float64(lt.logBytes), updates), "B")
	put("wal.checkpoint_bytes", ratio(counterSum(writes, "wal.checkpoint.bytes"), counterSum(writes, "wal.checkpoint.count")), "B")
	put("wal.recover.replayed", float64(r.replayed[len(r.replayed)-1]), "count")

	put("core.apply_ms", ratio(lt.coreMS, updates), "ms")
	for _, ph := range obs.Phases {
		put("core.phase."+ph+"_ms", ratio(histSum(tw, "core.phase."+ph), updates), "ms")
	}
	allUpdates := opCount(writes, updateClasses...)
	put("core.delta_items_per_update", ratio(counterSum(writes, "core.delta.items"), allUpdates), "count")
	put("core.views_skipped_ratio", ratio(counterSum(writes, "core.views.skipped"), allUpdates*float64(len(benchViews()))), "ratio")
	put("xmltree.snapshot_nodes_per_epoch", ratio(counterSum(writes, "snapshot.doc.nodes"), counterSum(writes, "snapshot.epochs")), "count")
	scanned := counterSum(writes, "algebra.join.tuples_scanned")
	put("algebra.join_tuples_scanned_per_update", ratio(scanned, allUpdates), "count")
	put("algebra.join_useful_ratio", ratio(counterSum(writes, "algebra.join.tuples_emitted"), scanned), "ratio")
	put("store.scan_items_per_update", ratio(counterSum(writes, "store.scan.items"), allUpdates), "count")

	for name, v := range r.probed {
		m[name] = v
	}

	// proc: the process as a whole. CPU per op comes from the sequential
	// phases, where one kind of op runs alone.
	put("proc.cpu_ms_per_update", ratio(sumRounds(r.writeRounds, func(x round) float64 { return x.cpuMS }), opCount(r.writeRounds)), "ms")
	put("proc.cpu_ms_per_read", ratio(sumRounds(r.readRounds, func(x round) float64 { return x.cpuMS }), opCount(r.readRounds)), "ms")
	put("proc.gc_cycles", float64(r.endMem.NumGC-r.startMem.NumGC), "count")
	put("proc.gc_pause_ms", float64(r.endMem.PauseTotalNs-r.startMem.PauseTotalNs)/1e6, "ms")
	put("proc.peak_rss_mb", r.peakRSS, "MB")
	spread := ratio(percentile(r.canaryMS, 0.9), percentile(r.canaryMS, 0.1))
	put("proc.canary_spread", spread, "ratio")
	if spread > 1.3 {
		fmt.Fprintf(r.log, "WARNING: the CPU canary's p90/p10 is %.2f: the box was noisy during this run\n", spread)
	}
	put("trace.overhead_ratio", ratio(rate(quietHalf(tw), updateClasses...), rate(quietHalf(onlyTraced(writes, false)), updateClasses...)), "ratio")
	return m
}

// timeMS times one call of f in milliseconds.
func timeMS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// medianMS times f reps times and returns the median in milliseconds.
func medianMS(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timeMS(f)
	}
	return median(xs)
}

// probes times layer entry points directly, on the final epoch's document.
func (r *runner) probes(put func(name string, v float64, unit string)) {
	sh, err := r.h.registry().Get(tenant)
	if err != nil {
		r.fail(1, "probes: %v", err)
		return
	}
	snap := sh.Epoch()
	docXML := snap.Doc().String()

	var doc *xmltree.Document
	put("xmltree.parse_ms", medianMS(3, func() { doc, _ = xmltree.ParseString(docXML) }), "ms")
	var eng *core.Engine
	put("core.materialize_ms", medianMS(3, func() {
		eng = core.New(doc, core.WithMetrics(obs.New()))
		for _, v := range benchViews() {
			if _, err := eng.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
				r.fail(1, "probe AddView %s: %v", v.Name, err)
			}
		}
	}), "ms")
	// Engine.Snapshot is the document copy plus the view-row copy; the
	// engine's own share is what the document copy does not explain. Both
	// are CPU kernels that allocate the whole document, so the fastest of
	// interleaved repeats is the figure least bent by the collector.
	docCopy, engCopy := math.Inf(1), math.Inf(1)
	for i := 0; i < 7; i++ {
		docCopy = math.Min(docCopy, timeMS(func() { doc.Snapshot() }))
		engCopy = math.Min(engCopy, timeMS(func() { eng.Snapshot() }))
	}
	put("xmltree.snapshot_ms", docCopy, "ms")
	put("core.snapshot_ms", math.Max(engCopy-docCopy, 0), "ms")

	stmts := make([]*update.Statement, 0, 2*len(r.in.pairs))
	put("update.parse_us", 1e3/float64(2*len(r.in.pairs))*medianMS(3, func() {
		stmts = stmts[:0]
		for _, p := range r.in.pairs {
			for _, src := range []string{p.insert, p.delete} {
				st, err := update.Parse(src)
				if err != nil {
					r.fail(1, "probe parse %q: %v", src, err)
					return
				}
				stmts = append(stmts, st)
			}
		}
	}), "us")

	bridgeable := append([]string(nil), hotCorpus...)
	bridgeable = append(bridgeable, rewriteBases...)
	var paths []xpath.Path
	put("xpath.parse_us", 1e3/float64(len(bridgeable))*medianMS(5, func() {
		paths = paths[:0]
		for _, q := range bridgeable {
			p, _ := xpath.Parse(q)
			paths = append(paths, p)
		}
	}), "us")
	put("xpath.bridge_us", 1e3/float64(len(paths))*medianMS(5, func() {
		for _, p := range paths {
			_, _ = xpath.ToPattern(p)
		}
	}), "us")
	var progs []*qvm.Program
	put("qvm.compile_us", 1e3/float64(len(walkCorpus))*medianMS(5, func() {
		progs = progs[:0]
		for _, q := range walkCorpus {
			p, err := qvm.CompileString(q)
			if err != nil {
				r.fail(1, "probe compile %q: %v", q, err)
				return
			}
			progs = append(progs, p)
		}
	}), "us")
	put("qvm.eval_walk_ms", 1/float64(len(walkCorpus))*medianMS(5, func() {
		for _, p := range progs {
			p.Eval(snap.Doc())
		}
	}), "ms")

	// rewrite.Answer plans and executes in one call. Over views with no
	// rows it only matches patterns and picks a plan; the difference to
	// the call over the real rows is the execution.
	var full, empty []*rewrite.View
	for i := range snap.Views {
		vs := &snap.Views[i]
		full = append(full, &rewrite.View{Name: vs.Name, Pattern: vs.Pattern, Rows: rewrite.RowSlice(vs.Rows)})
		empty = append(empty, &rewrite.View{Name: vs.Name, Pattern: vs.Pattern, Rows: rewrite.RowSlice(nil)})
	}
	var pats []*pattern.Pattern
	for _, b := range rewriteBases {
		p, err := xpath.ToPattern(xpath.MustParse(b))
		if err != nil {
			r.fail(1, "probe bridge %q: %v", b, err)
			return
		}
		pats = append(pats, p)
	}
	answer := func(views []*rewrite.View) func() {
		return func() {
			for _, p := range pats {
				_, _, _ = rewrite.Answer(p, views)
			}
		}
	}
	planMS := medianMS(5, answer(empty)) / float64(len(pats))
	put("rewrite.plan_us", planMS*1e3, "us")
	put("rewrite.exec_ms", medianMS(5, answer(full))/float64(len(pats))-planMS, "ms")

	put("independence.check_us", 1e3/float64(len(stmts)*len(snap.Views))*medianMS(5, func() {
		for _, st := range stmts {
			for i := range snap.Views {
				independence.Check(snap.Views[i].Pattern, st, nil)
			}
		}
	}), "us")

	if err := r.walProbe(docXML, stmts, put); err != nil {
		r.fail(1, "wal probe: %v", err)
	}
}

// walProbe times a checkpoint and a recovery of a scratch database built
// from the same document, views and statements, outside the HTTP path.
func (r *runner) walProbe(docXML string, stmts []*update.Statement, put func(string, float64, string)) error {
	dir, err := os.MkdirTemp(r.h.dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{Sync: wal.SyncAlways, Metrics: obs.New(), Engine: []core.Option{core.WithMetrics(obs.New())}}
	db, err := wal.Create(dir, []byte(docXML), opts)
	if err != nil {
		return err
	}
	for _, v := range benchViews() {
		if _, err := db.AddView(v.Name, v.Pattern); err != nil {
			db.Close()
			return err
		}
	}
	next := 0
	applyPairs := func(n int) error {
		for i := 0; i < 2*n; i++ {
			if _, err := db.Apply(stmts[next%len(stmts)]); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	var ckptMS []float64
	for i := 0; i < 3; i++ {
		if err := applyPairs(1); err != nil {
			db.Close()
			return err
		}
		var err error
		ckptMS = append(ckptMS, timeMS(func() { err = db.Checkpoint() }))
		if err != nil {
			db.Close()
			return err
		}
	}
	put("wal.checkpoint_ms", median(ckptMS), "ms")
	// Leave the same tail the recovery phase replays.
	if err := applyPairs(r.wl.pairsPerRound / 2); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	var openErr error
	put("wal.open_ms", medianMS(3, func() {
		db, err := wal.Open(dir, opts)
		if err != nil {
			openErr = err
			return
		}
		db.Close()
	}), "ms")
	return openErr
}
