package bench

import (
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/rewrite"
	"xivm/internal/xpath"
)

// TestRewriteShapesAgree pins that every benchmarked rewrite shape bridges,
// plans with the expected plan kind, and returns the tree walk's exact
// nodes AND values — the content-level property RunRewrite asserts before
// timing anything.
func TestRewriteShapesAgree(t *testing.T) {
	d := mustParse(Doc(SmallBytes))
	var views []*rewrite.View
	for name, src := range rewriteLibraryPatterns() {
		p := pattern.MustParse(src)
		views = append(views, &rewrite.View{Name: name, Pattern: p, Rows: rewrite.RowSlice{algebra.Materialize(d, p)}})
	}
	for _, rs := range RewriteShapes() {
		path, err := xpath.Parse(rs.Query)
		if err != nil {
			t.Fatalf("%s: parse: %v", rs.Name, err)
		}
		pat, err := xpath.ToPattern(path)
		if err != nil {
			t.Fatalf("%s: bridge: %v", rs.Name, err)
		}
		prog, err := qvm.Compile(path)
		if err != nil {
			t.Fatalf("%s: compile: %v", rs.Name, err)
		}
		rows, plan, err := rewrite.Answer(pat, views)
		if err != nil {
			t.Fatalf("%s: no rewrite: %v", rs.Name, err)
		}
		if plan.Kind != rs.Plan {
			t.Errorf("%s: planned %q, want %q", rs.Name, plan.Kind, rs.Plan)
		}
		nodes := prog.Eval(d)
		if len(nodes) == 0 {
			t.Errorf("%s: matches nothing on the benchmark document", rs.Name)
			continue
		}
		if len(rows) != len(nodes) {
			t.Errorf("%s: rewrite %d rows, tree walk %d nodes", rs.Name, len(rows), len(nodes))
			continue
		}
		for i := range rows {
			e := rows[i].Entries[0]
			if e.ID.Key() != nodes[i].ID.Key() || e.Val != nodes[i].StringValue() {
				t.Errorf("%s: row %d: rewrite (%s,%q) vs tree walk (%s,%q)",
					rs.Name, i, e.ID, e.Val, nodes[i].ID, nodes[i].StringValue())
				break
			}
		}
	}
}

// Benchmark wrapper over the rewrite suite so `go test -bench Rewrite`
// measures exactly what `xivmbench -rewrite-json` reports. CI runs this
// with -benchtime=1x as a bit-rot smoke.

func BenchmarkRewrite(b *testing.B) {
	d := mustParse(Doc(SmallBytes))
	var views []*rewrite.View
	for name, src := range rewriteLibraryPatterns() {
		p := pattern.MustParse(src)
		views = append(views, &rewrite.View{Name: name, Pattern: p, Rows: rewrite.RowSlice{algebra.Materialize(d, p)}})
	}
	for _, rs := range RewriteShapes() {
		path, err := xpath.Parse(rs.Query)
		if err != nil {
			b.Fatal(err)
		}
		pat, err := xpath.ToPattern(path)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := qvm.Compile(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(rs.Name+"/treewalk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(prog.Eval(d)) == 0 {
					b.Fatal("empty result")
				}
			}
		})
		b.Run(rs.Name+"/rewrite", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, _, err := rewrite.Answer(pat, views)
				if err != nil || len(rows) == 0 {
					b.Fatal("empty rewrite")
				}
			}
		})
	}
}
