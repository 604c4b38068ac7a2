package bench

import (
	"fmt"
	"io"

	"xivm/internal/core"
)

// The Print* helpers render each experiment's rows the way the paper's
// figures report them (series per phase, bars per pair, etc.).

func printHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

func printTimings(w io.Writer, label string, t core.Timings) {
	fmt.Fprintf(w, "%-28s find=%-10s delta=%-10s expr=%-10s exec=%-10s lattice=%-10s total=%s\n",
		label, fmtDur(t.FindTargets), fmtDur(t.ComputeDelta), fmtDur(t.GetExpression),
		fmtDur(t.ExecuteUpdate), fmtDur(t.UpdateLattice), fmtDur(t.Total()))
}

// PrintBreakdown renders Figures 18/19 rows.
func PrintBreakdown(w io.Writer, title string, rows []BreakdownRow) {
	printHeader(w, title)
	for _, r := range rows {
		printTimings(w, r.View+"_"+r.Update, r.Timings)
	}
}

// PrintPairs renders Figures 20/21 rows.
func PrintPairs(w io.Writer, title string, rows []PairRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %s\n", r.Pair, fmtDur(r.Total))
	}
}

// PrintDepth renders Figures 22/23 rows.
func PrintDepth(w io.Writer, title string, rows []DepthRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %s\n", r.Path, fmtDur(r.Total))
	}
}

// PrintAnnotations renders Figure 24 rows.
func PrintAnnotations(w io.Writer, title string, rows []AnnotationRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %s\n", r.Variant, fmtDur(r.Total))
	}
}

// PrintScale renders Figure 25 rows.
func PrintScale(w io.Writer, title string, rows []ScaleRow) {
	printHeader(w, title)
	for _, r := range rows {
		printTimings(w, fmt.Sprintf("%dKB", r.Bytes>>10), r.Timings)
	}
}

// PrintVsFull renders Figures 26/27 rows.
func PrintVsFull(w io.Writer, title string, rows []VsFullRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s incremental=%-12s full=%-12s speedup=%.1fx\n",
			r.Pair, fmtDur(r.Incremental), fmtDur(r.Full), ratio(r.Full, r.Incremental))
	}
}

// PrintVsIVMA renders Figure 28 rows.
func PrintVsIVMA(w io.Writer, title string, rows []IVMARow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s bulk=%-12s ivma=%-12s speedup=%.1fx\n",
			r.Update, fmtDur(r.Bulk), fmtDur(r.IVMA), ratio(r.IVMA, r.Bulk))
	}
}

// PrintSnowcaps renders Figures 29/30 rows.
func PrintSnowcaps(w io.Writer, title string, rows []SnowcapRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%6dKB snowcaps=%-12s leaves=%-12s speedup=%.1fx\n",
			r.Bytes>>10, fmtDur(r.Snowcaps), fmtDur(r.Leaves), ratio(r.Leaves, r.Snowcaps))
	}
}

// PrintSnowcapSplit renders Figures 31/32 rows.
func PrintSnowcapSplit(w io.Writer, title string, rows []SnowcapSplitRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%6dKB snow(R)=%-10s snow(U)=%-10s leaf(R)=%-10s leaf(U)=%-10s\n",
			r.Bytes>>10, fmtDur(r.SnowEval), fmtDur(r.SnowMaintain), fmtDur(r.LeafEval), fmtDur(r.LeafMaintain))
	}
}

// PrintRule renders Figures 33–35 rows.
func PrintRule(w io.Writer, title string, rows []RuleRow) {
	printHeader(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "%3d%% optimized=%-12s unoptimized=%-12s gain=%.1f%%\n",
			r.Percent, fmtDur(r.Optimized), fmtDur(r.Unoptimize),
			100*(1-float64(r.Optimized)/max1(float64(r.Unoptimize))))
	}
}

// PrintPruningAblation renders the pruning ablation.
func PrintPruningAblation(w io.Writer, rows []AblationPruningRow) {
	printHeader(w, "Ablation: term pruning (Props 3.6/3.8/4.7), view Q1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s pruned=%-12s unpruned=%-12s speedup=%.1fx\n",
			r.Update, fmtDur(r.Pruned), fmtDur(r.Unpruned), ratio(r.Unpruned, r.Pruned))
	}
}

// PrintJoinAblation renders the join ablation.
func PrintJoinAblation(w io.Writer, rows []AblationJoinRow) {
	printHeader(w, "Ablation: Dewey structural join vs nested loops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s structural=%-12s nested=%-12s speedup=%.1fx\n",
			r.View, fmtDur(r.Structural), fmtDur(r.NestedLoop), ratio(r.NestedLoop, r.Structural))
	}
}

func ratio(num, den interface{ Nanoseconds() int64 }) float64 {
	d := float64(den.Nanoseconds())
	if d <= 0 {
		return 0
	}
	return float64(num.Nanoseconds()) / d
}

func max1(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}
