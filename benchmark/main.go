// Command benchmark is the repository's end-to-end benchmark: it serves a
// generated XMark document from an in-process xivm registry behind a real
// loopback listener and measures, as a client of /v1/db/{name}, update time
// and enumeration delay, with an optional traced run that attributes the
// time to layers. See README.md beside this file.
//
//	benchmark -workload write_small -seed 1 -seconds 16 [-trace 1]
//	benchmark -aa 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last stdout line, in the shape the driver reads.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ceiling aborts and fails a run that takes longer than any workload should.
const ceiling = 90 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: write_small, write_large, read_static or mixed_rw")
	seed := flag.Int64("seed", 1, "seed for the document, the update targets and so every input")
	seconds := flag.Float64("seconds", 16, "measuring time, split between the workload's phases")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "smoke run: tiny document and counts")
	scratch := flag.String("scratch", "", "directory for the data dir and trace output (default: out/ beside the sources)")
	aa := flag.Int("aa", 0, "run N A/A trials of all workloads and print the comparison as markdown")
	flag.Parse()

	if *scratch == "" {
		*scratch = "out"
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	if *aa > 0 {
		if err := runAA(os.Stdout, *aa, *seconds, *scratch); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *quick {
		wl = wl.quick()
	}
	rep, err := runWorkload(os.Stdout, wl, *seed, *seconds, *trace == 1, *scratch)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload generates the inputs, runs the workload once and assembles
// the metrics of the requested kind, logging them by name and unit.
func runWorkload(log io.Writer, wl workload, seed int64, seconds float64, traced bool, scratch string) (*report, error) {
	in, err := genInputs(seed, wl.docBytes)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	h, err := newHarness(scratch, wl.pairsPerRound*2, rec)
	if err != nil {
		return nil, err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()
	r := &runner{wl: wl, in: in, h: h, ctx: ctx, seconds: seconds, log: log, reads: readStream{start: in.readStart}, gateSeen: map[string]int{}}
	fmt.Fprintf(log, "workload %s seed %d: document %d bytes, inputs %s\n", wl.name, seed, len(in.doc), in.streamHash()[:16])
	if err := r.run(); err != nil {
		return nil, err
	}

	r.logRounds()
	gated, diag := r.endToEndMetrics(), r.wallClockMetrics()
	logMetrics(log, gated, "gated")
	logMetrics(log, diag, "diagnostic")
	metrics := gated
	if traced {
		// The traced run reports the per-layer metrics, and the wall-clock
		// diagnostics with them under their own names.
		metrics = r.layerMetrics()
		logMetrics(log, metrics, "layer")
		for name, m := range diag {
			metrics[name] = m
		}
		path := filepath.Join(scratch, "trace-"+wl.name+".json")
		if err := rec.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "trace: %d spans written to %s\n", rec.mark(), path)
	}
	for _, f := range r.failures {
		fmt.Fprintln(log, "FAILED:", f)
	}
	fmt.Fprintf(log, "ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
	return &report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}

// timedRounds are the rounds the wall-clock metrics of a kind come from:
// the concurrent phase when the workload has one, else the sequential one.
func (r *runner) timedRounds(sequential []round) []round {
	if len(r.mixedRounds) > 0 {
		return r.mixedRounds
	}
	return sequential
}

// logMetrics prints one line per metric: name, value, unit and kind. The
// A/A check reads these lines back.
func logMetrics(log io.Writer, metrics map[string]metric, kind string) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "%-42s %16.6f %-6s %s\n", name, metrics[name].Value, metrics[name].Unit, kind)
	}
}

// endToEndMetrics are the gated metrics: set-up time and the costs that do
// not depend on timing. The counts come from every measured round of the
// sequential phases.
func (r *runner) endToEndMetrics() map[string]metric {
	perOp := func(rounds []round, f func(round) float64) float64 {
		return ratio(sumRounds(rounds, f), opCount(rounds))
	}
	allocKB := func(x round) float64 { return float64(x.allocBytes) / 1024 }
	return named(endToEnd, map[string]float64{
		"setup_s":              quietSingles(r.setupS),
		"live_heap_mb":         r.liveHeapMB,
		"alloc_kb_per_update":  perOp(r.writeRounds, allocKB),
		"alloc_kb_per_read":    perOp(r.readRounds, allocKB),
		"wal_bytes_per_update": ratio(counterSum(r.writeRounds, "wal.append.bytes"), opCount(r.writeRounds)),
	})
}

// wallClockMetrics are the issue's latency and rate metrics, each on the
// quiet half of its phase's rounds. They are reported, not gated: see the
// README's Noise section.
func (r *runner) wallClockMetrics() map[string]metric {
	w := quietHalf(r.timedRounds(r.writeRounds))
	rd := quietHalf(r.timedRounds(r.readRounds))
	readRPS := rate(rd, readClasses...)
	if len(r.mixedRounds) > 0 {
		readRPS = busyRate(rd, readClasses...)
	}
	return named(wallClock, map[string]float64{
		"update_rps":           rate(w, "insert", "delete"),
		"insert_p50_ms":        p50(pooled(w, "insert")),
		"delete_p50_ms":        p50(pooled(w, "delete")),
		"update_p90_ms":        percentile(latencies(pooled(w, "insert", "delete")), 0.9),
		"read_rps":             readRPS,
		"view_p50_ms":          p50(pooled(rd, classView)),
		"xpath_walk_p50_ms":    p50(pooled(rd, classWalk)),
		"xpath_rewrite_p50_ms": p50(pooled(rd, classRewrite)),
		"xpath_hot_p50_ms":     p50(pooled(rd, classHot)),
		"recover_s":            quietSingles(r.recoverS),
	})
}

func named(list []listed, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(list))
	for _, g := range list {
		m[g.name] = metric{values[g.name], g.unit}
	}
	return m
}

// logRounds prints the per-round values behind the quiet-half estimates, so
// drift inside a run is visible, and how many samples each estimate kept.
func (r *runner) logRounds() {
	updates := []string{"insert", "delete"}
	for _, ph := range []struct {
		name    string
		rounds  []round
		rate    func([]round, ...string) float64
		classes []string
	}{
		{"read", r.readRounds, rate, readClasses},
		{"write", r.writeRounds, rate, updates},
		{"mixed-writes", r.mixedRounds, rate, updates},
		{"mixed-reads", r.mixedRounds, busyRate, readClasses},
	} {
		if len(ph.rounds) == 0 {
			continue
		}
		fmt.Fprintf(r.log, "%s rounds (ops/s):", ph.name)
		for _, x := range ph.rounds {
			fmt.Fprintf(r.log, " %.1f", ph.rate([]round{x}, ph.classes...))
		}
		fmt.Fprintln(r.log)
	}
	fmt.Fprint(r.log, "samples kept by the quiet half:")
	w, rd := quietHalf(r.timedRounds(r.writeRounds)), quietHalf(r.timedRounds(r.readRounds))
	for _, class := range updates {
		fmt.Fprintf(r.log, " %s %.0f", class, opCount(w, class))
	}
	for _, class := range readClasses {
		fmt.Fprintf(r.log, " %s %.0f", class, opCount(rd, class))
	}
	fmt.Fprintf(r.log, "\nset-up repeats (s): %.4f\nrecovery repeats (s): %.4f\n", r.setupS, r.recoverS)
}
