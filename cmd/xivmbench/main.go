// Command xivmbench regenerates the paper's experimental figures: each
// subcommand reproduces one figure of Section 6 and prints the same
// rows/series the paper plots.
//
// Usage:
//
//	xivmbench [-size BYTES] [-small BYTES] [-metrics json|FILE] [-serve ADDR] fig18 [fig19 …] | all
//
// Subcommands: fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 fig26 fig27
// fig28 fig29 fig30 fig31 fig32 fig33 fig34 fig35 ablation all.
package main

import (
	"flag"
	"fmt"
	_ "net/http/pprof" // -serve exposes /debug/pprof
	"os"

	"xivm/internal/bench"
	"xivm/internal/obs"
	"xivm/internal/server"
)

func main() {
	size := flag.Int("size", bench.DefaultBytes, "large-document size in bytes (the paper's 10MB class)")
	small := flag.Int("small", bench.SmallBytes, "small-document size in bytes (the paper's 100KB class)")
	metrics := flag.String("metrics", "", `dump the whole run's engine metrics when done: "json" for stdout, or a file path`)
	serveAddr := flag.String("serve", "", "serve /debug/pprof and /debug/vars on this address while benchmarks run (e.g. :6060)")
	flag.Parse()

	if *serveAddr != "" {
		obs.PublishExpvar("xivm", obs.Default())
		shutdown, err := server.ServeDebug(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xivmbench:", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "serving pprof/expvar on %s\n", *serveAddr)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: xivmbench [-size N] [-small N] [-metrics json|FILE] [-serve ADDR] fig18 … fig35 | ablation | all")
		os.Exit(2)
	}
	percents := []int{20, 40, 60, 80, 100}
	series := []int{*size / 4, *size / 2, *size, *size * 2}
	w := os.Stdout

	var run func(name string)
	run = func(name string) {
		switch name {
		case "fig18":
			for _, vn := range []string{"Q1", "Q3", "Q6"} {
				bench.PrintBreakdown(w, "Figure 18: insert breakdown, view "+vn, bench.RunBreakdown(vn, true, *size))
			}
		case "fig19":
			for _, vn := range []string{"Q1", "Q3", "Q6"} {
				bench.PrintBreakdown(w, "Figure 19: delete breakdown, view "+vn, bench.RunBreakdown(vn, false, *size))
			}
		case "fig20":
			bench.PrintPairs(w, "Figure 20: insert performance, all views", bench.RunAllPairs(true, *size))
		case "fig21":
			bench.PrintPairs(w, "Figure 21: delete performance, all views", bench.RunAllPairs(false, *size))
		case "fig22":
			bench.PrintDepth(w, "Figure 22: X1_L delete at varying depth vs Q1 (small doc)", bench.RunPathDepth(*small))
		case "fig23":
			bench.PrintDepth(w, "Figure 23: X1_L delete at varying depth vs Q1 (large doc)", bench.RunPathDepth(*size))
		case "fig24":
			bench.PrintAnnotations(w, "Figure 24: X1_L vs Q1 annotation variants", bench.RunAnnotations(*small))
		case "fig25":
			bench.PrintScale(w, "Figure 25a: scalability of view insert (Q1, A6_A)", bench.RunScalability(series, true))
			bench.PrintScale(w, "Figure 25b: scalability of view delete (Q1, A6_A)", bench.RunScalability(series, false))
		case "fig26":
			bench.PrintVsFull(w, "Figure 26: PINT/PIMT vs full recomputation", bench.RunVsFull(true, *size))
		case "fig27":
			bench.PrintVsFull(w, "Figure 27: PDDT/PDMT vs full recomputation", bench.RunVsFull(false, *size))
		case "fig28":
			bench.PrintVsIVMA(w, "Figure 28: PINT/PIMT vs IVMA (Q1, small doc)", bench.RunVsIVMA(*small))
		case "fig29":
			bench.PrintSnowcaps(w, "Figure 29: snowcaps vs leaves, Q4", bench.RunSnowcapsVsLeaves("Q4", series))
		case "fig30":
			bench.PrintSnowcaps(w, "Figure 30: snowcaps vs leaves, Q6", bench.RunSnowcapsVsLeaves("Q6", series))
		case "fig31":
			bench.PrintSnowcapSplit(w, "Figure 31: evaluate/update split, Q4", bench.RunSnowcapSplit("Q4", series))
		case "fig32":
			bench.PrintSnowcapSplit(w, "Figure 32: evaluate/update split, Q6", bench.RunSnowcapSplit("Q6", series))
		case "fig33":
			bench.PrintRule(w, "Figure 33: reduction rule O1", bench.RunRule("O1", percents, *small))
		case "fig34":
			bench.PrintRule(w, "Figure 34: reduction rule O3", bench.RunRule("O3", percents, *small))
		case "fig35":
			bench.PrintRule(w, "Figure 35: reduction rule I5", bench.RunRule("I5", percents, *small))
		case "ablation":
			bench.PrintPruningAblation(w, bench.RunPruningAblation(*small))
			bench.PrintJoinAblation(w, bench.RunJoinAblation(*small))
		case "all":
			for _, f := range []string{"fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
				"fig25", "fig26", "fig27", "fig28", "fig29", "fig30", "fig31", "fig32",
				"fig33", "fig34", "fig35", "ablation"} {
				run(f)
			}
		default:
			fmt.Fprintf(os.Stderr, "xivmbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	for _, a := range args {
		run(a)
	}
	if *metrics != "" {
		// Every engine the benchmarks construct records into the shared
		// obs.Default() registry, so this is a whole-run profile.
		if *metrics == "json" || *metrics == "-" {
			if err := obs.Default().WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "xivmbench:", err)
				os.Exit(1)
			}
			return
		}
		f, err := os.Create(*metrics)
		if err == nil {
			err = obs.Default().WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xivmbench:", err)
			os.Exit(1)
		}
	}
}
