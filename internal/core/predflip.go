package core

import (
	"slices"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/update"
)

// Value predicates apply to the string value of a node — the concatenation
// of its text descendants. An update below an EXISTING node can therefore
// flip that node's σ membership, a change the paper's ∆ tables, which carry
// inserted and removed nodes only, do not express. It is a one-node change
// to a σ-input all the same, and is propagated as one (DESIGN §7):
//
//   - before the update, the σ membership of every label-compatible
//     self-or-ancestor of a target is probed, for each predicated node of
//     each view (probePredicates);
//   - after it, the probed nodes whose membership changed are the flips:
//     Fin_i, unsat→sat, and Fout_i, sat→unsat (findFlips);
//   - the statement's own propagation reads σ as it was (Relations undoes
//     the flips), so its terms and lattice see one state: the
//     statement's membership under the old σ;
//   - then the flip stage moves each view to the new σ, one flipped node at
//     a time (propagateFlips).
//
// A probe remembers its node by ID: on a published document the update
// leaves the node it was taken from as it was and puts a copy in its place.

// predProbe is the σ membership, before a statement, of one node for one
// predicated pattern node of one view.
type predProbe struct {
	view *ManagedView
	node int
	id   dewey.ID
	sat  bool
}

// flip is what a statement did to σ_node of one view, over the nodes there
// both before and after it: in went from unsat to sat, out from sat to
// unsat, each in document order.
type flip struct {
	view    *ManagedView
	node    int
	in, out []algebra.Item
}

// probePredicates records in the scratch, for every view node carrying a
// value predicate, the σ membership of each label-compatible self-or-
// ancestor of the update targets.
func (e *Engine) probePredicates(pul *update.PUL) {
	probes := e.sc.probes[:0]
	var targets []dewey.ID // found once a view has a predicate
	var seen map[string]bool
	for _, mv := range e.Views {
		for i, pn := range mv.Pattern.Nodes {
			if !pn.HasPred {
				continue
			}
			if targets == nil {
				targets, seen = predTargets(pul), map[string]bool{}
			}
			clear(seen)
			for _, t := range targets {
				// Self and ancestors, nearest first: every one is an element.
				for id := t; !id.IsNull() && !seen[id.Key()]; id = id.Parent() {
					seen[id.Key()] = true // the rest of the chain follows, or was captured already
					if pn.Label != "*" && pn.Label != id.Label() {
						continue
					}
					if n := e.Doc.NodeByID(id); n != nil {
						probes = append(probes, predProbe{view: mv, node: i, id: id, sat: n.StringValue() == pn.PredVal})
					}
				}
			}
		}
	}
	e.sc.probes = probes
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

// findFlips rechecks the probes after the update and keeps in the scratch
// the flips of every view node, views and nodes in order. A /-anchored
// pattern root's flips pass the filter its relation does.
func (e *Engine) findFlips() {
	sc := e.sc
	flips := sc.flips[:0]
	for _, pr := range sc.probes {
		n := e.Doc.NodeByID(pr.id)
		if n == nil || (n.StringValue() == pr.view.Pattern.Nodes[pr.node].PredVal) == pr.sat {
			continue
		}
		if k := len(flips) - 1; k < 0 || flips[k].view != pr.view || flips[k].node != pr.node {
			flips = append(flips, flip{view: pr.view, node: pr.node})
		}
		f := &flips[len(flips)-1]
		if it := (algebra.Item{ID: n.ID(), Node: n}); pr.sat {
			f.out = append(f.out, it)
		} else {
			f.in = append(f.in, it)
		}
	}
	for k := range flips {
		f := &flips[k]
		slices.SortFunc(f.in, byID)
		slices.SortFunc(f.out, byID)
		if f.node == 0 {
			f.in, f.out = algebra.FilterRootAnchor(f.view.Pattern, f.in), algebra.FilterRootAnchor(f.view.Pattern, f.out)
		}
	}
	sc.flips = flips
}

// flipsOf returns view mv's flips, in pattern order.
func (sc *scratch) flipsOf(mv *ManagedView) []flip {
	lo := slices.IndexFunc(sc.flips, func(f flip) bool { return f.view == mv })
	if lo < 0 {
		return nil
	}
	hi := lo
	for hi < len(sc.flips) && sc.flips[hi].view == mv {
		hi++
	}
	return sc.flips[lo:hi]
}

// asBefore returns items, node f.node's σ-input as the store reads it now
// in a slice the caller owns, as it was before the statement: without the
// nodes that flipped in, with those that flipped out.
func (f *flip) asBefore(items []algebra.Item) []algebra.Item {
	items = slices.DeleteFunc(items, func(it algebra.Item) bool { return holds(f.in, it.ID) })
	items = append(items, f.out...)
	slices.SortFunc(items, byID)
	return items
}

func byID(a, b algebra.Item) int { return a.ID.Compare(b.ID) }

// holds reports whether id is among the document-ordered items.
func holds(items []algebra.Item, id dewey.ID) bool {
	_, ok := slices.BinarySearchFunc(items, id, func(it algebra.Item, id dewey.ID) int { return it.ID.Compare(id) })
	return ok
}

// propagateFlips moves view mv from σ as the statement's propagation read
// it, as it was, to σ as it is, one flipped pattern node at a time in
// pattern order: while node i's flips are applied, the nodes before it read
// their new σ and those after it their old, so each step changes one
// σ-input. A step evaluates the whole pattern, and each snowcap holding i,
// with the flips as node i's input and the other relations reduced to what
// joins them (Relations.Around), adding what flipped in and taking away
// what flipped out. The developed terms cannot serve here: their R-masks
// are upward-closed because a ∆ node's descendants are ∆ too, and a flipped
// node's descendants are not flipped.
func (e *Engine) propagateFlips(vr *ViewReport, flips []flip) {
	mv := vr.View
	p, sc := mv.Pattern, &e.sc.alg
	for k, f := range flips {
		t0 := time.Now()
		r := mv.Lattice.relationsIn(e.sc, flips[k+1:])
		// eval returns the inputs of the step with items as node i's, and
		// the rows they project to.
		eval := func(items []algebra.Item) (algebra.Inputs, []algebra.Row) {
			if len(items) == 0 {
				return nil, nil
			}
			in := sc.Inputs(p.Size())
			in[f.node] = items
			r.Around(1<<uint(f.node), in)
			return in, sc.ProjectCounted(mv.Shape, sc.EvalSubPattern(p, p.FullMask(), in, e.Join()), e.Doc, e.proj)
		}
		in, added := eval(f.in)
		for _, row := range added {
			if mv.View.Upsert(row) {
				vr.RowsAdded++
			}
		}
		_, removed := eval(f.out)
		for _, row := range removed {
			if _, gone := mv.View.DecrementBy(row, row.Count); gone {
				vr.RowsRemoved++
			}
		}
		t1 := time.Now()
		vr.Phases.ExecuteUpdate += t1.Sub(t0)
		mv.Lattice.applyFlip(f.node, in, f.out, sc)
		vr.Phases.UpdateLattice += time.Since(t1)
		e.m.predFlipIn.Add(int64(len(f.in)))
		e.m.predFlipOut.Add(int64(len(f.out)))
	}
}
