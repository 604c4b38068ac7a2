package main

import (
	"math"
	"sort"
)

// The estimators. Interference on a shared box is one-sided (it only ever
// slows a round down) and clustered in time, so every wall-clock metric is
// computed on the quieter half of the rounds of identical work: rank the
// rounds by wall time, keep the faster ⌈n/2⌉, pool their per-op samples.
// The rule tolerates up to half the rounds being disturbed.

// sample is one timed op.
type sample struct {
	class string  // "insert", "delete" or a read class
	ms    float64 // client-observed latency
}

// round is one repetition of a phase's fixed work.
type round struct {
	wallS   float64 // less oracleS on a sequential read round
	oracleS float64 // time the benchmark spent asking its own tree-walk oracle
	samples []sample
	traced  bool // span recording was on (traced runs alternate it)

	// Process- and registry-wide deltas across the round. They are exact
	// per-op costs on the sequential phases, where nothing else runs.
	before, after  counters
	allocBytes     uint64  // runtime.MemStats.TotalAlloc
	cpuMS          float64 // user+system
	spanLo, spanHi int     // the round's spans in the recorder (traced runs)
}

// quietHalf returns the faster ⌈n/2⌉ rounds by wall time.
func quietHalf(rounds []round) []round {
	kept := append([]round(nil), rounds...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].wallS < kept[j].wallS })
	return kept[:(len(kept)+1)/2]
}

// rate is ops of the classes asked for (all when none is named) per second
// of the rounds' wall time.
func rate(rounds []round, classes ...string) float64 {
	return ratio(opCount(rounds, classes...), sumRounds(rounds, func(r round) float64 { return r.wallS }))
}

// busyRate is ops per second of the time their client spent waiting for
// them. Only the reader of the mixed phase is measured this way: it is paced
// by the writer and idles between ticks, so over the round's wall time its
// rate would be four times the writer's and say nothing about reads.
func busyRate(rounds []round, classes ...string) float64 {
	var busyMS float64
	for _, s := range pooled(rounds, classes...) {
		busyMS += s.ms
	}
	return ratio(opCount(rounds, classes...), busyMS/1e3)
}

func pool(samples []sample, classes ...string) []sample {
	if len(classes) == 0 {
		return samples
	}
	var out []sample
	for _, s := range samples {
		for _, c := range classes {
			if s.class == c {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func pooled(rounds []round, classes ...string) []sample {
	var out []sample
	for _, r := range rounds {
		out = append(out, pool(r.samples, classes...)...)
	}
	return out
}

// percentile is the nearest-rank q-quantile (0<q≤1) of xs; 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func latencies(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.ms
	}
	return xs
}

func p50(samples []sample) float64 { return percentile(latencies(samples), 0.5) }

// quietSingles summarises repeated single-shot timings (set-up, recovery)
// by the same rule: the median of the faster half.
func quietSingles(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s[:(len(s)+1)/2])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
