package bench

import (
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/xmark"
)

// SnowcapRow is one x of Figures 29/30: total maintenance time under the
// two lattice policies at one document size.
type SnowcapRow struct {
	Bytes    int
	Snowcaps time.Duration
	Leaves   time.Duration
}

// snowcapUpdate picks the update used to exercise a view's lattice.
func snowcapUpdate(viewName string) string {
	return xmark.ViewUpdates(viewName)[0]
}

// RunSnowcapsVsLeaves reproduces Figure 29 (Q4) / Figure 30 (Q6): the total
// time to evaluate terms and update the lattice, with materialized snowcaps
// vs leaves only, across document sizes.
func RunSnowcapsVsLeaves(viewName string, sizes []int) []SnowcapRow {
	var rows []SnowcapRow
	u := xmark.UpdateByName(snowcapUpdate(viewName))
	for _, n := range sizes {
		src := Doc(n)
		row := SnowcapRow{Bytes: n}
		for _, policy := range []core.Policy{core.PolicySnowcaps, core.PolicyLeaves} {
			policy := policy
			total := bestDur(func() time.Duration {
				e, _ := engineWith(src, viewName, core.WithPolicy(policy))
				rep, err := e.ApplyStatement(u.InsertStatement())
				if err != nil {
					panic(err)
				}
				t := rep.Timings()
				return t.ExecuteUpdate + t.UpdateLattice
			})
			if policy == core.PolicySnowcaps {
				row.Snowcaps = total
			} else {
				row.Leaves = total
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// SnowcapSplitRow is one x of Figures 31/32: the (R) evaluate-terms and (U)
// update-auxiliary times under each policy.
type SnowcapSplitRow struct {
	Bytes                  int
	SnowEval, SnowMaintain time.Duration
	LeafEval, LeafMaintain time.Duration
}

// RunSnowcapSplit reproduces Figures 31 (Q4) and 32 (Q6).
func RunSnowcapSplit(viewName string, sizes []int) []SnowcapSplitRow {
	var rows []SnowcapSplitRow
	u := xmark.UpdateByName(snowcapUpdate(viewName))
	for _, n := range sizes {
		src := Doc(n)
		row := SnowcapSplitRow{Bytes: n}
		for _, policy := range []core.Policy{core.PolicySnowcaps, core.PolicyLeaves} {
			policy := policy
			t := bestTimings(func() core.Timings {
				e, _ := engineWith(src, viewName, core.WithPolicy(policy))
				rep, err := e.ApplyStatement(u.InsertStatement())
				if err != nil {
					panic(err)
				}
				return rep.Timings()
			})
			if policy == core.PolicySnowcaps {
				row.SnowEval, row.SnowMaintain = t.ExecuteUpdate, t.UpdateLattice
			} else {
				row.LeafEval, row.LeafMaintain = t.ExecuteUpdate, t.UpdateLattice
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationPruningRow compares maintenance with all pruning rules on vs off.
type AblationPruningRow struct {
	Update   string
	Pruned   time.Duration
	Unpruned time.Duration
}

// RunPruningAblation measures the benefit of Propositions 3.6/3.8/4.7 on
// the Q1 workload (DESIGN.md §4).
func RunPruningAblation(docBytes int) []AblationPruningRow {
	src := Doc(docBytes)
	var rows []AblationPruningRow
	for _, un := range xmark.ViewUpdates("Q1") {
		u := xmark.UpdateByName(un)
		row := AblationPruningRow{Update: un}
		for _, off := range []bool{false, true} {
			off := off
			total := bestDur(func() time.Duration {
				var opts []core.Option
				if off {
					opts = []core.Option{core.WithoutDataPruning(), core.WithoutIDPruning()}
				}
				e, _ := engineWith(src, "Q1", opts...)
				rep, err := e.ApplyStatement(u.InsertStatement())
				if err != nil {
					panic(err)
				}
				return rep.Timings().Total() - rep.Timings().FindTargets
			})
			if off {
				row.Unpruned = total
			} else {
				row.Pruned = total
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// AblationJoinRow compares the Dewey structural join against the naive
// nested-loop join (DESIGN.md §4).
type AblationJoinRow struct {
	View       string
	Structural time.Duration
	NestedLoop time.Duration
}

// RunJoinAblation measures both physical joins on initial materialization +
// one insert propagation.
func RunJoinAblation(docBytes int) []AblationJoinRow {
	src := Doc(docBytes)
	var rows []AblationJoinRow
	for _, vn := range []string{"Q1", "Q2", "Q6"} {
		u := xmark.UpdateByName(xmark.ViewUpdates(vn)[0])
		row := AblationJoinRow{View: vn}
		for _, nested := range []bool{false, true} {
			nested := nested
			total := bestDur(func() time.Duration {
				var opts []core.Option
				if nested {
					opts = append(opts, core.WithJoin(algebra.NestedLoopStructuralJoin))
				}
				// Parse outside the timer: the ablation compares join
				// algorithms, not XML parsing.
				d := mustParse(src)
				start := time.Now()
				e := paperEngine(d, opts...)
				if _, err := e.AddView(vn, xmark.View(vn)); err != nil {
					panic(err)
				}
				if _, err := e.ApplyStatement(u.InsertStatement()); err != nil {
					panic(err)
				}
				return time.Since(start)
			})
			if nested {
				row.NestedLoop = total
			} else {
				row.Structural = total
			}
		}
		rows = append(rows, row)
	}
	return rows
}
