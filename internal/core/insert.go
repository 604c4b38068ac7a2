package core

import (
	"time"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
)

// propagateInsert runs the combined PINT/PIMT algorithm for one view: it
// computes the ∆+ tables (CD+, Algorithm 2), prunes the pre-developed union
// terms (Propositions 3.6 and 3.8), evaluates the survivors with structural
// joins (ET-INS, Algorithm 3) adding tuples / increasing derivation counts,
// refreshes val/cont of affected stored nodes (PIMT, Algorithm 4), and
// finally updates the snowcap lattice. The store's canonical relations must
// still reflect the pre-update document.
func (e *Engine) propagateInsert(mv *ManagedView, pul *update.PUL, applied *update.Applied) ViewReport {
	vr := ViewReport{View: mv}
	p := mv.Pattern

	// CD+: ∆ tables, σ-filtered per node.
	end := e.span("view:" + mv.Name + "/" + obs.PhaseComputeDelta)
	t0 := time.Now()
	deltaIn := e.deltaInputs(p, applied.InsertedRoots)
	vr.Phases = vr.Phases.Set(obs.PhaseComputeDelta, time.Since(t0))
	end()
	e.m.countDeltaItems(deltaIn)

	// Prune the pre-developed expression.
	end = e.span("view:" + mv.Name + "/" + obs.PhaseGetExpression)
	t0 = time.Now()
	terms := mv.insertTerms
	vr.TermsTotal = len(terms)
	e.m.termsExpanded.Add(int64(len(terms)))
	if !e.opts.DisableDataPruning {
		before := len(terms)
		terms = PruneByDelta(p, terms, deltaIn)
		e.m.pruneProp36.Add(int64(before - len(terms)))
	}
	if !e.opts.DisableIDPruning {
		before := len(terms)
		terms = PruneByInsertionPoints(p, terms, pul.InsertionPoints())
		e.m.pruneProp38.Add(int64(before - len(terms)))
	}
	vr.TermsSurvived = len(terms)
	e.m.termsEvaluated.Add(int64(len(terms)))
	vr.Phases = vr.Phases.Set(obs.PhaseGetExpression, time.Since(t0))
	end()

	// ET-INS: evaluate surviving terms and merge into the view. The
	// σ-filtered canonical relations are assembled once and shared by every
	// term and by the lattice maintenance below.
	end = e.span("view:" + mv.Name + "/" + obs.PhaseExecuteUpdate)
	t0 = time.Now()
	rIn := e.Store.Inputs(p)
	for _, rmask := range terms {
		for _, row := range e.evalTermFrom(mv, rmask, deltaIn, rIn) {
			if mv.View.Upsert(row) {
				vr.RowsAdded++
			}
		}
	}
	// PIMT: an insertion under a node whose val/cont the view stores
	// modifies that stored image.
	vr.RowsModified = e.modifyTuplesAfterInsert(mv, pul)
	vr.Phases = vr.Phases.Set(obs.PhaseExecuteUpdate, time.Since(t0))
	end()

	// Maintain auxiliary structures.
	end = e.span("view:" + mv.Name + "/" + obs.PhaseUpdateLattice)
	t0 = time.Now()
	mv.Lattice.ApplyInsertFrom(deltaIn, rIn)
	vr.Phases = vr.Phases.Set(obs.PhaseUpdateLattice, time.Since(t0))
	end()
	return vr
}

// modifyTuplesAfterInsert implements PIMT (Algorithm 4): for every view
// tuple and every pending update (n_i, t_i), when a cont/val-annotated
// entry binds n_i or an ancestor of it, the stored image is refreshed from
// the updated document.
func (e *Engine) modifyTuplesAfterInsert(mv *ManagedView, pul *update.PUL) int {
	cvn := mv.Pattern.ContValIndexes()
	if len(cvn) == 0 {
		return 0
	}
	cvnSet := make(map[int]bool, len(cvn))
	for _, i := range cvn {
		cvnSet[i] = true
	}
	// A stored image changes iff its node is a target or an ancestor of
	// one; Dewey IDs expose those as prefixes, so one hash set of the
	// targets' self-and-ancestor keys (prefixes of the target's own key —
	// no allocation) answers the check per row entry.
	affected := map[string]bool{}
	for _, pi := range pul.Inserts {
		for c := pi.Target.ID.Cursor(); c.Next(); {
			affected[c.Key()] = true
		}
	}
	return e.refreshRows(mv, cvnSet, affected)
}

// refreshRows refreshes every stored row in which a cvn entry binds one of
// the affected nodes (by ID key), returning how many there were.
func (e *Engine) refreshRows(mv *ManagedView, cvnSet map[int]bool, affected map[string]bool) int {
	var dirty []algebra.Row
	mv.View.Each(func(r algebra.Row) bool {
		for _, entry := range r.Entries {
			if cvnSet[entry.NodeIdx] && affected[entry.ID.Key()] {
				dirty = append(dirty, r)
				return true
			}
		}
		return true
	})
	for _, r := range dirty {
		e.refreshRow(mv, r, cvnSet)
	}
	return len(dirty)
}

// refreshRow re-extracts val/cont for the cvn entries of one stored row
// from the live document.
func (e *Engine) refreshRow(mv *ManagedView, row algebra.Row, cvnSet map[int]bool) {
	mv.View.Replace(row, func(r *algebra.Row) {
		for i := range r.Entries {
			en := &r.Entries[i]
			if !cvnSet[en.NodeIdx] {
				continue
			}
			n := e.Doc.NodeByID(en.ID)
			if n == nil {
				continue
			}
			pn := mv.Pattern.Nodes[en.NodeIdx]
			if pn.Store.Has(pattern.StoreVal) {
				en.Val = n.StringValue()
			}
			if pn.Store.Has(pattern.StoreCont) {
				en.Cont = n.Content()
			}
		}
	})
}
