package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The A/A self-check: the same code measured against itself. A trial is two
// back-to-back sets; a set runs every workload aaRuns times on seeds
// 1..aaRuns, each run in a fresh process exactly as the driver starts it,
// and takes each metric's median. The two medians must lie within half the
// metric's bound of each other, whichever is the worse one, or the metric
// does not belong on the gated list.

const aaRuns = 3

// listed is one metric's contract: name, unit, direction and the relative
// worsening that counts as a regression.
type listed struct {
	name, unit, better string
	bound              float64
	required           bool // gated because the driver demands it, whatever the A/A check finds
}

// endToEnd is the gated list; BENCHMARK.json repeats it and a test holds the
// two together. Every bound is the issue's except setup_s: the driver
// requires that metric on the list, tells the benchmark to give it the
// largest bound, and does not hold its spread against it. It is a timing
// like the ones below and no steadier.
var endToEnd = []listed{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, required: true},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.03},
	{name: "alloc_kb_per_update", unit: "KB", better: "lower", bound: 0.02},
	{name: "alloc_kb_per_read", unit: "KB", better: "lower", bound: 0.02},
	{name: "wal_bytes_per_update", unit: "B", better: "lower", bound: 0.01},
}

// wallClock are the issue's other end-to-end metrics, with the bounds it
// gave them. On this box same-code sets differ by more than half of that on
// some workload for every one of them (AA.md), so by the issue's pruning
// rule they are diagnostics: reported under the same names in every log and
// in the traced run's report, never gated, and never given a wider bound.
var wallClock = []listed{
	{name: "update_rps", unit: "1/s", better: "higher", bound: 0.10},
	{name: "insert_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "delete_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "update_p90_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "read_rps", unit: "1/s", better: "higher", bound: 0.10},
	{name: "view_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "xpath_walk_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "xpath_rewrite_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "xpath_hot_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.10},
}

// runSet returns, per workload, each metric's median over aaRuns subprocess
// runs: the gated metrics and the wall-clock diagnostics, read back from the
// lines logMetrics prints.
func runSet(seconds float64, scratch string) (map[string]map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for _, wl := range workloads {
		values := map[string][]float64{}
		for seed := 1; seed <= aaRuns; seed++ {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0", "-scratch", scratch)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			var last []byte
			sc := bufio.NewScanner(bytes.NewReader(stdout))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				last = append(last[:0], sc.Bytes()...)
				if f := strings.Fields(sc.Text()); len(f) == 4 && (f[3] == "gated" || f[3] == "diagnostic") {
					v, err := strconv.ParseFloat(f[1], 64)
					if err != nil {
						return nil, fmt.Errorf("%s seed %d: metric line %q: %w", wl.name, seed, sc.Text(), err)
					}
					values[f[0]] = append(values[f[0]], v)
				}
			}
			var rep report
			if err := json.Unmarshal(last, &rep); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line is not a report: %w", wl.name, seed, err)
			}
			if !rep.Correct {
				return nil, fmt.Errorf("%s seed %d: %d of %d ops failed", wl.name, seed, rep.Failed, rep.Attempted)
			}
		}
		out[wl.name] = map[string]float64{}
		for name, xs := range values {
			out[wl.name][name] = median(xs)
		}
	}
	return out, nil
}

// apart is how far two same-code medians lie from each other, as a share of
// the better one. In an A/A run either direction is the same disagreement.
func apart(a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi/lo - 1
}

// runAA prints n trials as markdown: per workload and metric the two sets'
// medians and how far apart they are, against half the bound. The gated
// metrics must pass; the diagnostics are shown against the bound the issue
// wanted them gated at, which is the record of why they are not.
func runAA(w io.Writer, n int, seconds float64, scratch string) error {
	fmt.Fprintf(w, "# A/A self-check\n\n%d trials; each compares two back-to-back sets of %d runs per workload (seeds 1–%d, %g s measured per run, one process per run). "+
		"`apart` is the distance between the two sets' medians as a share of the better one; a pair passes when it stays within half its bound.\n",
		n, aaRuns, aaRuns, seconds)
	overGated, overRequired := 0, 0
	overDiag := map[string]int{}
	for trial := 1; trial <= n; trial++ {
		a, err := runSet(seconds, scratch)
		if err != nil {
			return err
		}
		b, err := runSet(seconds, scratch)
		if err != nil {
			return err
		}
		for _, part := range []struct {
			title string
			list  []listed
			gated bool
		}{
			{"gated", endToEnd, true},
			{"diagnostics, against the issue's bound", wallClock, false},
		} {
			fmt.Fprintf(w, "\n## Trial %d: %s\n\n| workload | metric | set A | set B | apart | bound | |\n|---|---|---|---|---|---|---|\n", trial, part.title)
			for _, wl := range workloads {
				for _, g := range part.list {
					va, vb := a[wl.name][g.name], b[wl.name][g.name]
					d := apart(va, vb)
					verdict := "ok"
					switch {
					case d <= g.bound/2:
					case g.required:
						verdict = "over half, gated all the same: the driver requires it"
						overRequired++
					case part.gated:
						verdict = "OVER HALF"
						overGated++
					default:
						verdict = "over half"
						overDiag[g.name]++
					}
					fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %s |\n", wl.name, g.name, va, vb, 100*d, 100*g.bound, verdict)
				}
			}
		}
	}
	pairs := n * len(workloads)
	fmt.Fprintf(w, "\n## Summary\n\n%d of %d gated cost pairs went past half their bound. `setup_s`, which the driver requires on the gated list, went past half of its %d times in %d.\n\n"+
		"Diagnostics past half the issue's bound, of %d pairs each:", overGated, pairs*(len(endToEnd)-1), overRequired, pairs, pairs)
	for _, g := range wallClock {
		fmt.Fprintf(w, " `%s` %d;", g.name, overDiag[g.name])
	}
	fmt.Fprintln(w)
	if overGated > 0 {
		return fmt.Errorf("%d gated cost pairs went past half their bound", overGated)
	}
	return nil
}
