package core

import (
	"xivm/internal/dewey"
	"xivm/internal/store"
	"xivm/internal/update"
)

// Value predicates apply to the string value of a node — the concatenation
// of its text descendants. An update deep inside a subtree can therefore
// flip the predicate truth of an EXISTING ancestor node, a case the ∆-term
// algebra cannot express (∆ tables only carry new/removed nodes). The paper
// does not treat this case; we detect it exactly — by snapshotting, before
// the update, the σ membership of the (few) predicate-labeled ancestors of
// the update targets — and fall back to recomputing the affected view when
// a flip actually occurred. Benchmarks never trigger it; random tests do.
//
// A probe remembers its node by ID: on a published document the update
// leaves the node it was taken from as it was and puts a copy in its place.

type predProbe struct {
	view    *ManagedView
	id      dewey.ID
	predVal string
	sat     bool
}

// snapshotPredicates records, for every view node carrying a value
// predicate, the current σ membership of each label-compatible self-or-
// ancestor of the update targets.
func (e *Engine) snapshotPredicates(pul *update.PUL) []predProbe {
	var targets []dewey.ID // found once a view has a predicate
	var probes []predProbe
	for _, mv := range e.Views {
		for _, pn := range mv.Pattern.Nodes {
			if !pn.HasPred {
				continue
			}
			if targets == nil {
				targets = predTargets(pul)
			}
			seen := map[string]bool{}
			for _, t := range targets {
				// Self and ancestors, nearest first: every one is an element.
				for id := t; !id.IsNull() && !seen[id.Key()]; id = id.Parent() {
					seen[id.Key()] = true // the rest of the chain follows, or was captured already
					if pn.Label != "*" && pn.Label != id.Label() {
						continue
					}
					if s := e.Doc.NodeByID(id); s != nil {
						probes = append(probes, predProbe{
							view:    mv,
							id:      id,
							predVal: pn.PredVal,
							sat:     s.StringValue() == pn.PredVal,
						})
					}
				}
			}
		}
	}
	return probes
}

// predTargets returns the nodes whose self-or-ancestors a predicate probe
// covers: an insertion's targets, a deletion's targets' parents.
func predTargets(pul *update.PUL) []dewey.ID {
	var targets []dewey.ID
	if pul.Kind == update.Insert {
		for _, pi := range pul.Inserts {
			targets = append(targets, pi.Target.ID())
		}
	} else {
		for _, n := range pul.Deletes {
			targets = append(targets, n.ID().Parent())
		}
	}
	return targets
}

// flippedViews rechecks the probes after the update and returns the views
// whose σ membership changed for at least one node that is still there.
func (e *Engine) flippedViews(probes []predProbe) map[*ManagedView]bool {
	var out map[*ManagedView]bool
	for _, pr := range probes {
		if s := e.Doc.NodeByID(pr.id); s != nil && (s.StringValue() == pr.predVal) != pr.sat {
			if out == nil {
				out = map[*ManagedView]bool{}
			}
			out[pr.view] = true
		}
	}
	return out
}

// recomputeFallback rebuilds one view (rows and lattice) from the current
// document state.
func (e *Engine) recomputeFallback(mv *ManagedView) {
	rows := e.RecomputeView(mv)
	mv.View = store.NewViewOf(mv.Shape, rows)
	mv.Lattice = e.newLattice(mv.Pattern)
}
