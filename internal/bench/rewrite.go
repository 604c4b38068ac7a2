package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/rewrite"
	"xivm/internal/xpath"
)

// This file defines the view-rewrite microbenchmarks behind `xivmbench
// -rewrite-json`: the same ad-hoc XPath answered by the compiled tree walk
// over the document and by the rewrite planner over materialized views —
// one shape per plan the planner can produce (single-view, two-view
// stitch, k-view intersection). Views are materialized once outside the
// timed region (the serving path keeps them incrementally maintained);
// the rewrite side times planning plus view-only evaluation, which is the
// cost a result-cache miss pays. Both engines must agree on the result at
// content level — IDs and values, not just counts — or the run panics.

// RewriteShape names one benchmarked query with the plan it exercises.
type RewriteShape struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	Plan  string `json:"plan"` // "single", "stitch" or "intersect"
}

// RewriteShapes returns the benchmarked rewrite corpus over XMark.
func RewriteShapes() []RewriteShape {
	return []RewriteShape{
		// One view answers the whole query.
		{"SingleView", "//open_auction//increase", "single"},
		// Split at bidder, hash-joined on its structural ID.
		{"TwoViewStitch", "//open_auction//bidder//increase", "stitch"},
		// Three pieces sharing the person root, joined on its ID.
		{"ThreeViewIntersect", "//person[profile][homepage]/name", "intersect"},
	}
}

// rewriteLibraryPatterns is the ID-complete view library the suite plans
// against — the same shapes the server examples register.
func rewriteLibraryPatterns() map[string]string {
	return map[string]string{
		"auction-bidder":   `//open_auction{ID}//bidder{ID}`,
		"bidder-increase":  `//bidder{ID}//increase{ID,val}`,
		"auction-increase": `//open_auction{ID}//increase{ID,val}`,
		"person-profile":   `//person{ID}//profile{ID}`,
		"person-homepage":  `//person{ID}//homepage{ID}`,
		"person-name":      `//person{ID}//name{ID,val}`,
	}
}

// RewriteResult is one (shape, engine) measurement, shaped for BENCH_*.json.
type RewriteResult struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine"` // "treewalk" or "rewrite"
	Plan        string  `json:"plan"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Matches     int     `json:"matches"`
}

// RewriteReport is the machine-readable output of one rewrite-suite run.
// Speedup maps shape name to treewalk-ns / rewrite-ns.
type RewriteReport struct {
	Suite    string             `json:"suite"`
	DocBytes int                `json:"doc_bytes"`
	Results  []RewriteResult    `json:"results"`
	Speedup  map[string]float64 `json:"speedup"`
}

// RunRewrite runs the rewrite suite via testing.Benchmark.
func RunRewrite(docBytes int) RewriteReport {
	rep := RewriteReport{Suite: "rewrite", DocBytes: docBytes, Speedup: map[string]float64{}}
	d := mustParse(Doc(docBytes))

	var views []*rewrite.View
	for name, src := range rewriteLibraryPatterns() {
		p := pattern.MustParse(src)
		views = append(views, &rewrite.View{
			Name:    name,
			Pattern: p,
			Rows:    rewrite.RowSlice{algebra.Materialize(d, p)},
		})
	}

	for _, rs := range RewriteShapes() {
		path, err := xpath.Parse(rs.Query)
		if err != nil {
			panic(fmt.Sprintf("bench: parse %q: %v", rs.Query, err))
		}
		pat, err := xpath.ToPattern(path)
		if err != nil {
			panic(fmt.Sprintf("bench: bridge %q: %v", rs.Query, err))
		}
		prog, err := qvm.Compile(path)
		if err != nil {
			panic(fmt.Sprintf("bench: compile %q: %v", rs.Query, err))
		}

		rows, plan, err := rewrite.Answer(pat, views)
		if err != nil {
			panic(fmt.Sprintf("bench: %q has no rewrite over the library: %v", rs.Query, err))
		}
		if plan.Kind != rs.Plan {
			panic(fmt.Sprintf("bench: %q planned %q, suite expects %q", rs.Query, plan.Kind, rs.Plan))
		}
		nodes := prog.Eval(d)
		if len(nodes) == 0 {
			panic(fmt.Sprintf("bench: %q matches nothing on the generated document", rs.Query))
		}
		if len(rows) != len(nodes) {
			panic(fmt.Sprintf("bench: %q: rewrite %d rows, tree walk %d nodes", rs.Query, len(rows), len(nodes)))
		}
		for i := range rows {
			e := rows[i].Entries[0]
			if e.ID.Key() != nodes[i].ID.Key() || e.Val != nodes[i].StringValue() {
				panic(fmt.Sprintf("bench: %q row %d: rewrite (%s,%q) vs tree walk (%s,%q)",
					rs.Query, i, e.ID, e.Val, nodes[i].ID, nodes[i].StringValue()))
			}
		}

		rt := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(prog.Eval(d)) == 0 {
					b.Fatal("bench: empty result")
				}
			}
		})
		rr := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, err := rewrite.Answer(pat, views)
				if err != nil || len(rows) == 0 {
					b.Fatal("bench: empty rewrite")
				}
			}
		})
		rep.Results = append(rep.Results,
			rewriteResult(rs.Name, "treewalk", rs.Plan, rt, len(nodes)),
			rewriteResult(rs.Name, "rewrite", rs.Plan, rr, len(rows)))
		tns := float64(rt.T.Nanoseconds()) / float64(rt.N)
		rns := float64(rr.T.Nanoseconds()) / float64(rr.N)
		if rns > 0 {
			rep.Speedup[rs.Name] = tns / rns
		}
	}
	return rep
}

func rewriteResult(name, engine, plan string, r testing.BenchmarkResult, matches int) RewriteResult {
	return RewriteResult{
		Name:        name,
		Engine:      engine,
		Plan:        plan,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Matches:     matches,
	}
}

// WriteRewriteJSON runs the suite and writes the report as indented JSON.
func WriteRewriteJSON(w io.Writer, docBytes int) error {
	rep := RunRewrite(docBytes)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
