package core

import (
	"time"

	"xivm/internal/algebra"

	"xivm/internal/store"
	"xivm/internal/update"
)

// FullRecompute is the Section 6.5 baseline: it applies the statement to
// the document and rebuilds every view from scratch on the modified
// document instead of propagating incrementally. It returns the time spent
// recomputing (excluding target lookup and the document update). Replace
// statements run both of their stages before the single recomputation.
func (e *Engine) FullRecompute(st *update.Statement) (time.Duration, error) {
	if st.Kind == update.Replace {
		delPul, insPul, err := update.ExpandReplace(e.Doc, st)
		if err != nil {
			return 0, err
		}
		if _, err := update.Apply(e.Doc, delPul); err != nil {
			return 0, err
		}
		if _, err := update.Apply(e.Doc, insPul); err != nil {
			return 0, err
		}
		return e.recomputeAll(), nil
	}
	pul, err := update.ComputePUL(e.Doc, st)
	if err != nil {
		return 0, err
	}
	if _, err := update.Apply(e.Doc, pul); err != nil {
		return 0, err
	}
	return e.recomputeAll(), nil
}

func (e *Engine) recomputeAll() time.Duration {
	e.bumpVersion()
	start := time.Now()
	for _, mv := range e.Views {
		// A from-scratch recomputation has no incremental infrastructure to
		// lean on: it re-scans the modified document for every view, as the
		// paper's baseline re-evaluates v over d′.
		rows := algebra.Materialize(e.Doc, mv.Pattern)
		mv.View = store.NewViewOf(mv.Shape, rows)
		mv.Lattice = e.newLattice(mv.Pattern)
	}
	return time.Since(start)
}
