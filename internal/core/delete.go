package core

import (
	"time"

	"xivm/internal/dewey"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/update"
)

// propagateDelete runs the combined PDDT/PDMT algorithm (Algorithm 6) for
// one view. The document and canonical relations have already been updated;
// the lattice is refreshed first (dropping tuples bound inside deleted
// subtrees), then the surviving deletion terms are evaluated against the
// post-update relations — a disjoint partition of the removed derivations,
// so each term's result is subtracted with its exact count. Finally PDMT
// refreshes val/cont of surviving tuples whose stored nodes lost
// descendants.
func (e *Engine) propagateDelete(mv *ManagedView, delta update.Delta) ViewReport {
	vr := ViewReport{View: mv}
	p := mv.Pattern

	// CD−: the view's σ-filtered read of the ∆ tables of the detached
	// subtrees. bound is label membership before σ, over every node of
	// this view's pattern, stored or not: with no entry for any of them, no
	// binding of this view — in a row or in a snowcap tuple — lies inside
	// the deleted forest. The shared tables hold other views' labels too,
	// so that they are non-empty says nothing about this view.
	end := e.viewSpan(mv, obs.PhaseComputeDelta)
	t0 := time.Now()
	deltaIn, bound := e.viewDelta(mv, delta)
	vr.Phases.ComputeDelta = time.Since(t0)
	end()
	e.m.countDeltaItems(deltaIn)

	// Prune the pre-developed deletion expression.
	end = e.viewSpan(mv, obs.PhaseGetExpression)
	t0 = time.Now()
	// The terms are pruned in a copy in the scratch, filtered in place.
	terms := append(e.sc.terms[:0], mv.terms...)
	vr.TermsTotal = len(terms)
	e.m.termsExpanded.Add(int64(len(terms)))
	if !e.opts.DisableDataPruning {
		before := len(terms)
		terms = pruneByDelta(terms[:0], p, terms, deltaIn)
		e.m.pruneProp36.Add(int64(before - len(terms)))
	}
	if !e.opts.DisableIDPruning {
		before := len(terms)
		terms = pruneByDeletedIDs(terms[:0], p, terms, deltaIn)
		e.m.pruneProp47.Add(int64(before - len(terms)))
	}
	e.sc.terms = terms
	vr.TermsSurvived = len(terms)
	e.m.termsEvaluated.Add(int64(len(terms)))
	vr.Phases.GetExpression = time.Since(t0)
	end()

	// Update auxiliary structures before evaluating terms: deletion terms
	// must see post-update snowcaps. A view none of whose labels occurs in
	// the deleted forest binds nothing there, and neither searching pass —
	// this one over its snowcaps, pass 1 below over its rows — is run.
	end = e.viewSpan(mv, obs.PhaseUpdateLattice)
	t0 = time.Now()
	if bound {
		e.m.latticeDropped.Add(int64(mv.Lattice.ApplyDelete(&e.sc.cover)))
	}
	vr.Phases.UpdateLattice = time.Since(t0)
	end()

	// Subtract the removed derivations. Two complementary mechanisms:
	//
	//  1. Any row whose STORED binding lies inside a deleted subtree loses
	//     every derivation (all its embeddings bind that node), so a single
	//     Dewey-cover scan over the view removes it — no joins needed. This
	//     also makes bulk deletions (∆ ≈ whole document regions) cheap.
	//  2. Terms whose ∆-set touches only NON-stored nodes adjust the counts
	//     of surviving rows and are evaluated algebraically as usual; terms
	//     with ∆ on a stored node are exactly the rows pass 1 removed.
	end = e.viewSpan(mv, obs.PhaseExecuteUpdate)
	t0 = time.Now()
	if bound {
		vr.RowsRemoved += e.removeRowsUnder(mv, &e.sc.cover)
	}
	rIn := mv.Lattice.relationsIn(e.sc, e.sc.flipsOf(mv))
	full := p.FullMask()
	for _, rmask := range terms {
		if (full&^rmask)&mv.storedMask != 0 {
			continue // covered by the scan in pass 1
		}
		for _, row := range e.evalTermFrom(mv, rmask, deltaIn, rIn) {
			if _, removed := mv.View.DecrementBy(row, row.Count); removed {
				vr.RowsRemoved++
			}
		}
	}
	// PDMT: for every surviving view tuple and every deleted subtree root,
	// when a cont/val-annotated entry binds an ancestor of the deleted
	// root — its parent or above — its stored image is re-extracted from
	// the (already updated) document.
	vr.RowsModified = e.refreshAround(mv, e.sc.touched)
	vr.Phases.ExecuteUpdate = time.Since(t0)
	end()
	return vr
}

// removeRowsUnder drops every view row in which some stored entry binds a
// node equal to or inside one of the cover's subtrees, returning how many
// rows were removed.
func (e *Engine) removeRowsUnder(mv *ManagedView, cover *dewey.Cover) int {
	doomed := e.sc.rows[:0]
	width := mv.Shape.Width()
	mv.View.Each(func(r algebra.Row) bool {
		for i := range width {
			if cover.Contains(r.ID(i)) {
				doomed = append(doomed, r)
				break
			}
		}
		return true
	})
	for _, r := range doomed {
		mv.View.Remove(r)
	}
	e.sc.rows = doomed
	return len(doomed)
}

// RecomputeView evaluates the view from scratch on the current document —
// the full-recomputation baseline of Section 6.5.
func (e *Engine) RecomputeView(mv *ManagedView) []algebra.Row {
	sc := e.sc.algebra()
	block := sc.EvalSubPattern(mv.Pattern, mv.Pattern.FullMask(), e.Store.Inputs(mv.Pattern), e.Join())
	return sc.ProjectCounted(mv.Shape, block, e.Doc, algebra.ProjectCounters{})
}

// CheckView reports whether the maintained view matches a from-scratch
// recomputation (rows, values, contents and derivation counts).
func (e *Engine) CheckView(mv *ManagedView) bool {
	return mv.View.EqualRows(e.RecomputeView(mv))
}
