package difftest

import (
	"fmt"
	"sort"
	"testing"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestGoldenXPathMarkEquivalence drives the full XPathMark-derived update
// workload — every Appendix A update, insertion variants first, then
// deletion variants — through every Policy × {eager, batch} configuration,
// diffing each maintained view against a twin engine that runs
// FullRecompute after every statement. The two engines must agree on every
// view after every statement (for batch: after every chunk of two, which
// goes through pulopt.ApplyRun: one ApplyBatch when the planner translates
// it, one statement at a time when it does not).
func TestGoldenXPathMarkEquivalence(t *testing.T) {
	src := xmark.Generate(xmark.Config{TargetBytes: 10 << 10, Seed: 5})

	var names []string
	for _, vn := range xmark.ViewNames() {
		for _, un := range xmark.ViewUpdates(vn) {
			names = append(names, un)
		}
	}
	sort.Strings(names)
	names = dedupe(names)
	var stmts []string
	for _, un := range names {
		stmts = append(stmts, xmark.UpdateByName(un).InsertStatement().Source)
	}
	for _, un := range names {
		stmts = append(stmts, xmark.UpdateByName(un).DeleteStatement().Source)
	}

	type mode struct {
		name  string
		batch int
	}
	policies := []core.Policy{core.PolicySnowcaps, core.PolicyLeaves}
	if testing.Short() {
		policies = policies[:1]
	}
	for _, policy := range policies {
		for _, m := range []mode{{name: "eager"}, {name: "batch", batch: 2}} {
			label := fmt.Sprintf("%v/%s", policy, m.name)
			d1, err := xmltree.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := xmltree.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			e1 := core.New(d1, core.WithPolicy(policy), core.WithMetrics(obs.New()))
			e2 := core.New(d2, core.WithMetrics(obs.New()))
			var m1, m2 []*core.ManagedView
			for _, vn := range xmark.ViewNames() {
				v1, err := e1.AddView(vn, xmark.View(vn))
				if err != nil {
					t.Fatal(err)
				}
				v2, err := e2.AddView(vn, xmark.View(vn))
				if err != nil {
					t.Fatal(err)
				}
				m1, m2 = append(m1, v1), append(m2, v2)
			}
			var chunk []*update.Statement
			for i, src := range stmts {
				st1, st2 := update.MustParse(src), update.MustParse(src)
				if _, err := e2.FullRecompute(st2); err != nil {
					t.Fatalf("baseline %q: %v", src, err)
				}
				if m.batch == 0 {
					if _, err := e1.ApplyStatement(st1); err != nil {
						t.Fatalf("%s: apply %q: %v", label, src, err)
					}
				} else {
					if chunk = append(chunk, st1); len(chunk) < m.batch && i < len(stmts)-1 {
						continue
					}
					run := pulopt.ApplyRun(e1, chunk, nil)
					if run.UnitErr != nil {
						t.Fatalf("%s: batch ending %q: %v", label, src, run.UnitErr)
					}
					for k, r := range run.Results {
						if r.Err != nil {
							t.Fatalf("%s: apply %q: %v", label, chunk[k].Source, r.Err)
						}
					}
					chunk = chunk[:0]
				}
				for v := range m1 {
					if !m1[v].View.EqualRows(m2[v].View.Rows()) {
						t.Fatalf("%s: view %s diverged from FullRecompute after statement %d (%s)",
							label, m1[v].Name, i, src)
					}
				}
			}
		}
	}
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
