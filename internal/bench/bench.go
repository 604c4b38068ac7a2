// Package bench implements the paper's experiments (Section 6, Figures
// 18–35): each Run* function reproduces one figure's measurement, returning
// the same rows/series the paper plots, and cmd/xivmbench prints them as
// tables.
//
// Absolute numbers differ from the paper's (different host, store, and
// language); the shapes — who wins, by what factor, where trends bend — are
// what EXPERIMENTS.md compares.
package bench

import (
	"fmt"
	"time"

	"xivm/internal/core"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// DefaultBytes is the default generated document size for experiments that
// use a single document ("10MB class" in the paper, scaled down so the
// whole suite runs in seconds; use cmd/xivmbench -size to run paper-scale).
const DefaultBytes = 200 << 10

// SmallBytes mirrors the paper's 100KB configurations.
const SmallBytes = 100 << 10

// Reps is how many times each timed experiment repeats its measurement,
// keeping the fastest run (the paper averages five executions; the minimum
// is more robust against GC pauses at our scale).
var Reps = 3

// bestTimings returns the repetition with the smallest total.
func bestTimings(f func() core.Timings) core.Timings {
	best := f()
	for i := 1; i < Reps; i++ {
		if t := f(); t.Total() < best.Total() {
			best = t
		}
	}
	return best
}

// bestDur returns the fastest repetition.
func bestDur(f func() time.Duration) time.Duration {
	best := f()
	for i := 1; i < Reps; i++ {
		if d := f(); d < best {
			best = d
		}
	}
	return best
}

var docCache = map[int]string{}

// Doc returns (and caches) the generated document text for a target size.
func Doc(bytes int) string {
	if s, ok := docCache[bytes]; ok {
		return s
	}
	s := xmark.Generate(xmark.Config{TargetBytes: bytes, Seed: 42})
	docCache[bytes] = s
	return s
}

func mustParse(src string) *xmltree.Document {
	d, err := xmltree.ParseString(src)
	if err != nil {
		panic(err)
	}
	return d
}

// engineWith builds a fresh engine over the (re-parsed) document with one
// benchmark view installed.
func engineWith(docSrc, viewName string, opts core.Options) (*core.Engine, *core.ManagedView) {
	e := core.NewEngine(mustParse(docSrc), opts)
	mv, err := e.AddView(viewName, xmark.View(viewName))
	if err != nil {
		panic(err)
	}
	return e, mv
}

// BreakdownRow is one bar of Figures 18/19: the per-phase times of
// propagating one update to one view.
type BreakdownRow struct {
	View, Update string
	Timings      core.Timings
}

// RunBreakdown reproduces Figure 18 (insert=true) / Figure 19 (insert=
// false) for one view: the five-phase time breakdown across the view's five
// update classes.
func RunBreakdown(viewName string, insert bool, docBytes int) []BreakdownRow {
	src := Doc(docBytes)
	var rows []BreakdownRow
	for _, un := range xmark.ViewUpdates(viewName) {
		u := xmark.UpdateByName(un)
		t := bestTimings(func() core.Timings {
			e, _ := engineWith(src, viewName, core.Options{})
			st := u.InsertStatement()
			if !insert {
				st = u.DeleteStatement()
			}
			rep, err := e.ApplyStatement(st)
			if err != nil {
				panic(err)
			}
			return rep.Timings()
		})
		rows = append(rows, BreakdownRow{View: viewName, Update: un, Timings: t})
	}
	return rows
}

// PairRow is one bar of Figures 20/21: total propagation time of one
// (view, update) pair.
type PairRow struct {
	Pair  string
	Total time.Duration
}

// RunAllPairs reproduces Figure 20 (insert) / Figure 21 (delete): the total
// maintenance time for all 35 view-update pairs.
func RunAllPairs(insert bool, docBytes int) []PairRow {
	src := Doc(docBytes)
	var rows []PairRow
	for _, vn := range xmark.ViewNames() {
		for _, un := range xmark.ViewUpdates(vn) {
			u := xmark.UpdateByName(un)
			t := bestTimings(func() core.Timings {
				e, _ := engineWith(src, vn, core.Options{})
				st := u.InsertStatement()
				if !insert {
					st = u.DeleteStatement()
				}
				rep, err := e.ApplyStatement(st)
				if err != nil {
					panic(err)
				}
				return rep.Timings()
			})
			rows = append(rows, PairRow{Pair: vn + "_" + un, Total: t.Total()})
		}
	}
	return rows
}

// DepthRow is one bar of Figures 22/23: total time for the X1_L deletion at
// one target depth against view Q1.
type DepthRow struct {
	Path  string
	Total time.Duration
}

// RunPathDepth reproduces Figures 22 (100KB) and 23 (10MB class): deletion
// updates of varying path depth against the fixed view Q1.
func RunPathDepth(docBytes int) []DepthRow {
	src := Doc(docBytes)
	var rows []DepthRow
	for _, path := range xmark.DepthPaths() {
		path := path
		t := bestTimings(func() core.Timings {
			e, _ := engineWith(src, "Q1", core.Options{})
			rep, err := e.ApplyStatement(update.MustParse("delete " + path))
			if err != nil {
				panic(err)
			}
			return rep.Timings()
		})
		rows = append(rows, DepthRow{Path: path, Total: t.Total()})
	}
	return rows
}

// AnnotationRow is one bar of Figure 24.
type AnnotationRow struct {
	Variant xmark.AnnotationVariant
	Total   time.Duration
}

// RunAnnotations reproduces Figure 24: the fixed update X1_L (deleting
// person0, so both deletions and modifications fire) against Q1 variants
// with varying val/cont annotations.
func RunAnnotations(docBytes int) []AnnotationRow {
	src := Doc(docBytes)
	var rows []AnnotationRow
	for _, v := range xmark.AnnotationVariants() {
		v := v
		t := bestTimings(func() core.Timings {
			e := core.NewEngine(mustParse(src), core.Options{})
			if _, err := e.AddView(string(v), xmark.Q1Variant(v)); err != nil {
				panic(err)
			}
			rep, err := e.ApplyStatement(update.MustParse(`delete /site/people/person[@id="person0"]`))
			if err != nil {
				panic(err)
			}
			return rep.Timings()
		})
		rows = append(rows, AnnotationRow{Variant: v, Total: t.Total()})
	}
	return rows
}

// ScaleRow is one x of Figure 25: per-phase times at one document size.
type ScaleRow struct {
	Bytes   int
	Timings core.Timings
}

// RunScalability reproduces Figure 25: view Q1, update A6_A, documents of
// increasing size; insert selects the (a) insertion or (b) deletion panel.
func RunScalability(sizes []int, insert bool) []ScaleRow {
	var rows []ScaleRow
	u := xmark.UpdateByName("A6_A")
	for _, n := range sizes {
		n := n
		t := bestTimings(func() core.Timings {
			e, _ := engineWith(Doc(n), "Q1", core.Options{})
			st := u.InsertStatement()
			if !insert {
				st = u.DeleteStatement()
			}
			rep, err := e.ApplyStatement(st)
			if err != nil {
				panic(err)
			}
			return rep.Timings()
		})
		rows = append(rows, ScaleRow{Bytes: n, Timings: t})
	}
	return rows
}

// VsFullRow is one pair of bars of Figures 26/27.
type VsFullRow struct {
	Pair        string
	Incremental time.Duration
	Full        time.Duration
}

// RunVsFull reproduces Figure 26 (insert) / 27 (delete): incremental
// maintenance vs full view recomputation for views Q1, Q2 and Q4.
func RunVsFull(insert bool, docBytes int) []VsFullRow {
	src := Doc(docBytes)
	var rows []VsFullRow
	for _, vn := range []string{"Q1", "Q2", "Q4"} {
		for _, un := range xmark.ViewUpdates(vn) {
			u := xmark.UpdateByName(un)
			mk := func() *update.Statement {
				if insert {
					return u.InsertStatement()
				}
				return u.DeleteStatement()
			}

			inc := bestDur(func() time.Duration {
				eInc, _ := engineWith(src, vn, core.Options{})
				rep, err := eInc.ApplyStatement(mk())
				if err != nil {
					panic(err)
				}
				return rep.Timings().Total() - rep.Timings().FindTargets
			})
			full := bestDur(func() time.Duration {
				eFull, _ := engineWith(src, vn, core.Options{})
				d, err := eFull.FullRecompute(mk())
				if err != nil {
					panic(err)
				}
				return d
			})
			rows = append(rows, VsFullRow{Pair: vn + "_" + un, Incremental: inc, Full: full})
		}
	}
	return rows
}

// IVMARow is one pair of bars of Figure 28.
type IVMARow struct {
	Update string
	Bulk   time.Duration
	IVMA   time.Duration
}

// RunVsIVMA reproduces Figure 28: PINT/PIMT vs the node-at-a-time IVMA
// algorithm, view Q1, 100KB-class document, for the five Q1 updates (each
// inserting a 5-node tree: one bulk call vs five node-level passes).
func RunVsIVMA(docBytes int) []IVMARow {
	src := Doc(docBytes)
	var rows []IVMARow
	for _, un := range xmark.ViewUpdates("Q1") {
		u := xmark.UpdateByName(un)

		bulk := bestDur(func() time.Duration {
			eBulk, _ := engineWith(src, "Q1", core.Options{})
			rep, err := eBulk.ApplyStatement(u.InsertStatement())
			if err != nil {
				panic(err)
			}
			return rep.Timings().Total() - rep.Timings().FindTargets
		})
		ivmaTime := bestDur(func() time.Duration {
			eIvma, _ := engineWith(src, "Q1", core.Options{})
			d, err := core.NewIVMA(eIvma).ApplyStatement(u.InsertStatement())
			if err != nil {
				panic(err)
			}
			return d
		})
		rows = append(rows, IVMARow{Update: un, Bulk: bulk, IVMA: ivmaTime})
	}
	return rows
}

// fmtDur prints a duration in milliseconds with fixed precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}
