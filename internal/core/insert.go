package core

import (
	"slices"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
)

// propagateInsert runs the combined PINT/PIMT algorithm for one view: it
// reads its σ-filtered inputs from the statement's ∆+ tables (CD+,
// Algorithm 2), prunes the pre-developed union terms (Propositions 3.6 and
// 3.8), evaluates the survivors with structural joins (ET-INS, Algorithm 3)
// adding tuples / increasing derivation counts, refreshes val/cont of
// affected stored nodes (PIMT, Algorithm 4), and finally updates the
// snowcap lattice. The store's canonical relations must still show the
// pre-update membership (applyPUL hides the insertion).
func (e *Engine) propagateInsert(mv *ManagedView, delta update.Delta) ViewReport {
	vr := ViewReport{View: mv}
	p := mv.Pattern

	// CD+: the view's σ-filtered read of the shared ∆ tables.
	end := e.viewSpan(mv, obs.PhaseComputeDelta)
	t0 := time.Now()
	deltaIn, _ := e.viewDelta(mv, delta)
	vr.Phases.ComputeDelta = time.Since(t0)
	end()
	items := e.m.countDeltaItems(deltaIn)

	// Prune the pre-developed expression.
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
	if !e.opts.DisableIDPruning && len(terms) > 0 {
		before := len(terms)
		terms = pruneByInsertionPoints(terms[:0], p, terms, e.sc.points)
		e.m.pruneProp38.Add(int64(before - len(terms)))
	}
	e.sc.terms = terms
	vr.TermsSurvived = len(terms)
	e.m.termsEvaluated.Add(int64(len(terms)))
	vr.Phases.GetExpression = time.Since(t0)
	end()

	// ET-INS: evaluate surviving terms and merge into the view. Every term
	// and the lattice maintenance below share one R side: a term reads of
	// each relation what its ∆ can join, the lattice whole relations, each
	// once.
	end = e.viewSpan(mv, obs.PhaseExecuteUpdate)
	t0 = time.Now()
	rIn := mv.Lattice.relationsIn(e.sc, e.sc.flipsOf(mv))
	for _, rmask := range terms {
		for _, row := range e.evalTermFrom(mv, rmask, deltaIn, rIn) {
			if mv.View.Upsert(row) {
				vr.RowsAdded++
			}
		}
	}
	// PIMT (Algorithm 4): for every view tuple and every pending update
	// (n_i, t_i), when a cont/val-annotated entry binds n_i or an ancestor
	// of it, the stored image is refreshed from the updated document.
	vr.RowsModified = e.refreshAround(mv, e.sc.touched)
	vr.Phases.ExecuteUpdate = time.Since(t0)
	end()

	// Maintain auxiliary structures: a snowcap's additions all join some
	// node's σ-filtered ∆, so with none there are none.
	end = e.viewSpan(mv, obs.PhaseUpdateLattice)
	t0 = time.Now()
	if items > 0 {
		mv.Lattice.ApplyInsertFrom(deltaIn, rIn)
	}
	vr.Phases.UpdateLattice = time.Since(t0)
	end()
	return vr
}

// storesImage reports whether a pattern node is in the paper's cvn set: its
// bindings are stored with their val or cont.
func storesImage(n *pattern.Node) bool {
	return n.Store.Has(pattern.StoreVal) || n.Store.Has(pattern.StoreCont)
}

// refreshAround is the scan PIMT and PDMT share: it refreshes every stored
// row in which a cvn entry binds one of the touched nodes or an ancestor of
// one — the nodes whose val/cont an edit at those points changes — and
// returns how many rows that was. Dewey IDs expose self-and-ancestors as
// key prefixes (no allocation), so one hash set of them, the scratch's,
// answers the check per row entry. The set is first cut down by the ID
// reasoning of Propositions 3.8 / 4.7: an entry of cvn node n binds only
// nodes carrying n's label ("*": any element, which every ancestor is),
// and an ID names the label at each of its levels, so a prefix whose
// label no cvn node has can match no entry. When nothing is left the view
// is not scanned.
func (e *Engine) refreshAround(mv *ManagedView, touched []dewey.ID) int {
	p := mv.Pattern
	cvn := mv.cvn
	if len(cvn) == 0 {
		return 0
	}
	admits := func(label string) bool {
		return slices.ContainsFunc(cvn, func(i int) bool { l := p.Nodes[i].Label; return l == label || l == "*" })
	}
	sc := e.sc
	if sc.keys == nil {
		sc.keys = map[string]bool{}
	}
	affected := sc.keys
	clear(affected)
	for _, id := range touched {
		for c := id.Cursor(); c.Next(); {
			if admits(c.Label()) {
				affected[c.Key()] = true
			}
		}
	}
	if len(affected) == 0 {
		return 0
	}
	dirty := sc.rows[:0]
	shape := mv.Shape
	mv.View.Each(func(r algebra.Row) bool {
		for i := range shape.Width() {
			if entry := shape.Entry(r, i); storesImage(p.Nodes[entry.NodeIdx]) && affected[entry.ID.Key()] {
				dirty = append(dirty, r)
				break
			}
		}
		return true
	})
	for _, r := range dirty {
		e.refreshRow(mv, r)
	}
	sc.rows = dirty
	return len(dirty)
}

// refreshRow re-extracts val/cont for the cvn entries of one stored row
// from the live document.
func (e *Engine) refreshRow(mv *ManagedView, row algebra.Row) {
	shape := mv.Shape
	mv.View.Replace(row, func(r algebra.Row) {
		for i := range shape.Width() {
			en := shape.Entry(r, i)
			pn := mv.Pattern.Nodes[en.NodeIdx]
			if !storesImage(pn) {
				continue
			}
			n := e.Doc.NodeByID(en.ID)
			if n == nil {
				continue
			}
			if pn.Store.Has(pattern.StoreVal) {
				en.Val = n.StringValue()
			}
			if pn.Store.Has(pattern.StoreCont) {
				en.Cont = n.Content()
			}
			shape.Set(r, i, en)
		}
	})
}
