package core

import (
	"time"

	"xivm/internal/dewey"
	"xivm/internal/xmltree"

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
func (e *Engine) propagateDelete(mv *ManagedView, pul *update.PUL, applied *update.Applied) ViewReport {
	vr := ViewReport{View: mv}
	p := mv.Pattern

	// CD−: ∆ tables over the detached subtrees.
	end := e.span("view:" + mv.Name + "/" + obs.PhaseComputeDelta)
	t0 := time.Now()
	tables := update.DeltaTables(applied.DeletedRoots, p.Labels())
	deltaIn := e.filterDelta(p, tables)
	// Label membership before σ, over every pattern node, stored or not:
	// with no table at all, no binding of this view — in a row or in a
	// snowcap tuple — lies inside the deleted forest.
	bound := len(tables) > 0
	vr.Phases = vr.Phases.Set(obs.PhaseComputeDelta, time.Since(t0))
	end()
	e.m.countDeltaItems(deltaIn)

	// Prune the pre-developed deletion expression.
	end = e.span("view:" + mv.Name + "/" + obs.PhaseGetExpression)
	t0 = time.Now()
	terms := mv.deleteTerms
	vr.TermsTotal = len(terms)
	e.m.termsExpanded.Add(int64(len(terms)))
	if !e.opts.DisableDataPruning {
		before := len(terms)
		terms = PruneByDelta(p, terms, deltaIn)
		e.m.pruneProp36.Add(int64(before - len(terms)))
	}
	if !e.opts.DisableIDPruning {
		before := len(terms)
		terms = PruneByDeletedIDs(p, terms, deltaIn)
		e.m.pruneProp47.Add(int64(before - len(terms)))
	}
	vr.TermsSurvived = len(terms)
	e.m.termsEvaluated.Add(int64(len(terms)))
	vr.Phases = vr.Phases.Set(obs.PhaseGetExpression, time.Since(t0))
	end()

	// Update auxiliary structures before evaluating terms: deletion terms
	// must see post-update snowcaps. A view none of whose labels occurs in
	// the deleted forest binds nothing there, and neither searching pass —
	// this one over its snowcaps, pass 1 below over its rows — is run.
	end = e.span("view:" + mv.Name + "/" + obs.PhaseUpdateLattice)
	t0 = time.Now()
	if bound {
		e.m.latticeDropped.Add(int64(mv.Lattice.ApplyDelete(applied.DeletedRoots)))
	}
	vr.Phases = vr.Phases.Set(obs.PhaseUpdateLattice, time.Since(t0))
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
	end = e.span("view:" + mv.Name + "/" + obs.PhaseExecuteUpdate)
	t0 = time.Now()
	if bound {
		vr.RowsRemoved += removeRowsUnder(mv, applied.DeletedRoots)
	}
	var storedMask uint64
	for _, i := range p.StoredIndexes() {
		storedMask |= 1 << uint(i)
	}
	rIn := mv.Lattice.Relations()
	full := p.FullMask()
	for _, rmask := range terms {
		if (full&^rmask)&storedMask != 0 {
			continue // covered by the scan in pass 1
		}
		for _, row := range e.evalTermFrom(mv, rmask, deltaIn, rIn) {
			if _, removed := mv.View.DecrementBy(row, row.Count); removed {
				vr.RowsRemoved++
			}
		}
	}
	// PDMT: surviving tuples whose stored val/cont nodes are ancestors of a
	// deleted subtree must refresh their stored images.
	vr.RowsModified = e.modifyTuplesAfterDelete(mv, applied)
	vr.Phases = vr.Phases.Set(obs.PhaseExecuteUpdate, time.Since(t0))
	end()
	return vr
}

// removeRowsUnder drops every view row in which some stored entry binds a
// node equal to or inside one of the deleted subtrees, returning how many
// rows were removed.
func removeRowsUnder(mv *ManagedView, roots []*xmltree.Node) int {
	ids := make([]dewey.ID, len(roots))
	for i, r := range roots {
		ids[i] = r.ID
	}
	cover := dewey.NewCover(ids)
	var doomed []algebra.Row
	mv.View.Each(func(r algebra.Row) bool {
		for _, e := range r.Entries {
			if cover.Contains(e.ID) {
				doomed = append(doomed, r)
				break
			}
		}
		return true
	})
	for _, r := range doomed {
		mv.View.Remove(r)
	}
	return len(doomed)
}

// modifyTuplesAfterDelete implements PDMT: for every surviving view tuple
// and every deleted subtree root, when a cont/val-annotated entry binds an
// ancestor of the deleted root — its parent or above — its stored image is
// re-extracted from the (already updated) document.
func (e *Engine) modifyTuplesAfterDelete(mv *ManagedView, applied *update.Applied) int {
	parents := make([]dewey.ID, len(applied.DeletedRoots))
	for i, root := range applied.DeletedRoots {
		parents[i] = root.ID.Parent()
	}
	return e.refreshAround(mv, parents)
}

// RecomputeView evaluates the view from scratch on the current document —
// the full-recomputation baseline of Section 6.5.
func (e *Engine) RecomputeView(mv *ManagedView) []algebra.Row {
	in := e.Store.Inputs(mv.Pattern)
	tuples := algebra.EvalPattern(mv.Pattern, in, e.Join())
	return algebra.ProjectStored(mv.Pattern, tuples, e.Doc)
}

// CheckView reports whether the maintained view matches a from-scratch
// recomputation (rows, values, contents and derivation counts).
func (e *Engine) CheckView(mv *ManagedView) bool {
	return mv.View.EqualRows(e.RecomputeView(mv))
}
