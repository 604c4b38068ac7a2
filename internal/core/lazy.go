package core

import (
	"sort"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Lazy implements the deferred propagation mode Section 5 motivates: update
// statements are applied to the document (and canonical relations)
// immediately, but view propagation is postponed until Flush — typically
// just before the view is consulted. The flush propagates the batch's NET
// effect in two algebraic passes:
//
//  1. one deletion pass whose ∆− tables hold the detached subtrees
//     (batch-inserted nodes excluded: the views never saw them, so
//     counting them would over-decrement derivations), evaluated against
//     final-state relations with the batch's surviving insertions masked
//     out — a disjoint partition, so counts stay exact; then
//  2. one insertion pass whose ∆+ tables hold the surviving inserted
//     subtrees, against the same masked relations.
//
// Insert-then-delete churn inside a batch therefore costs nothing at flush
// time — the effect the reduction rules of Section 5 obtain one operation
// at a time, achieved here wholesale.
type Lazy struct {
	e        *Engine
	insRoots []*xmltree.Node // every root inserted during the batch
	delRoots []*xmltree.Node // every subtree detached during the batch
	touched  []dewey.ID      // insertion targets and deletion parents
	probes   []predProbe
	pending  int
}

// NewLazy wraps an engine in deferred-propagation mode. Statements must go
// through Lazy.Apply; mixing in direct Engine.ApplyStatement calls while a
// batch is pending would propagate against half-updated state. A batch
// tracks the nodes it inserted by pointer (see Flush), so Lazy runs only on
// a document that is never published (Engine.Snapshot): there a node keeps
// its pointer for life.
func NewLazy(e *Engine) *Lazy {
	if e.pool != nil {
		panic("core: deferred propagation is incompatible with SharedSnowcaps")
	}
	return &Lazy{e: e}
}

// Pending returns the number of statements applied since the last flush.
func (l *Lazy) Pending() int { return l.pending }

// Apply runs the statement against the document and store only, recording
// what Flush needs. The views go stale until Flush. Replace statements are
// expanded into their deletion and insertion stages, both recorded in the
// same batch (the net-effect flush composes them like any other churn).
func (l *Lazy) Apply(st *update.Statement) error {
	e := l.e
	if e.opts.Journal != nil {
		if err := e.opts.Journal(st); err != nil {
			return err
		}
	}
	if st.Kind == update.Replace {
		delPul, insPul, err := update.ExpandReplace(e.Doc, st)
		if err != nil {
			return err
		}
		// Predicate probes for both stages must capture the pre-update
		// state, so snapshot before any mutation.
		l.probes = append(l.probes, e.snapshotPredicates(delPul)...)
		l.probes = append(l.probes, e.snapshotPredicates(insPul)...)
		delApplied, err := update.Apply(e.Doc, e.Store, delPul)
		if err != nil {
			return err
		}
		l.recordDeletes(delApplied)
		insApplied, err := update.Apply(e.Doc, e.Store, insPul)
		if err != nil {
			return err
		}
		l.recordInserts(insPul, insApplied)
		l.pending++
		e.m.lazyApplied.Inc()
		e.bumpVersion()
		return nil
	}
	pul, err := update.ComputePUL(e.Doc, st)
	if err != nil {
		return err
	}
	l.probes = append(l.probes, e.snapshotPredicates(pul)...)
	applied, err := update.Apply(e.Doc, e.Store, pul)
	if err != nil {
		return err
	}
	switch pul.Kind {
	case update.Insert:
		l.recordInserts(pul, applied)
	case update.Delete:
		l.recordDeletes(applied)
	}
	l.pending++
	e.m.lazyApplied.Inc()
	e.bumpVersion()
	return nil
}

func (l *Lazy) recordInserts(pul *update.PUL, applied *update.Applied) {
	l.insRoots = append(l.insRoots, applied.InsertedRoots...)
	for _, pi := range pul.Inserts {
		l.touched = append(l.touched, pi.Target.ID)
	}
}

// recordDeletes books the detached subtrees and their parents as touch
// points. A root-level delete (a child of the document root) has the root
// itself as parent; the null ID a hypothetical rootless node would yield is
// skipped — refreshTouched iterates ancestor levels and must never see a
// level-0 ID.
func (l *Lazy) recordDeletes(applied *update.Applied) {
	l.delRoots = append(l.delRoots, applied.DeletedRoots...)
	for _, n := range applied.DeletedRoots {
		if p := n.ID.Parent(); !p.IsNull() {
			l.touched = append(l.touched, p)
		}
	}
}

// Flush propagates the batch's net effect to every view and resets the
// batch. It returns the time spent propagating.
func (l *Lazy) Flush() (time.Duration, error) {
	if l.pending == 0 {
		return 0, nil
	}
	start := time.Now()
	e := l.e

	// Nodes inserted during the batch, alive or not. Identity must be the
	// node POINTER, not the Dewey ID: a delete followed by an insert under
	// the same parent reuses freed sibling ordinals, so an inserted node can
	// carry the exact ID of a node deleted earlier in the batch (replace
	// statements do this every time). An ID-prefix cover would then mask the
	// deleted subtrees out of ∆− and the flush would never decrement them.
	inserted := make(map[*xmltree.Node]bool)
	for _, r := range l.insRoots {
		xmltree.Walk(r, func(n *xmltree.Node) bool {
			inserted[n] = true
			return true
		})
	}

	// Surviving insertions: roots still attached to the document. The
	// pointer comparison guards against a later insert reusing the ID of an
	// inserted-then-deleted root. Roots nested inside other surviving roots
	// (a later statement inserting into an earlier insertion) are dropped:
	// the outermost root's subtree walk already covers them, so keeping
	// both would double-count the inner subtree in ∆+. Attached nodes have
	// unambiguous IDs, and in sorted order a root's descendants follow it
	// contiguously, so checking the last kept root suffices.
	var insAlive []*xmltree.Node
	for _, r := range l.insRoots {
		if e.Doc.NodeByID(r.ID) == r {
			insAlive = append(insAlive, r)
		}
	}
	sort.Slice(insAlive, func(i, j int) bool { return insAlive[i].ID.Compare(insAlive[j].ID) < 0 })
	kept := insAlive[:0]
	for _, r := range insAlive {
		if k := len(kept); k > 0 && kept[k-1].ID.IsAncestorOf(r.ID) {
			continue
		}
		kept = append(kept, r)
	}
	insAlive = kept

	for _, mv := range e.Views {
		l.flushView(mv, inserted, insAlive)
	}

	for mv := range e.flippedViews(l.probes) {
		e.recomputeFallback(mv)
	}

	l.insRoots, l.delRoots, l.touched, l.probes, l.pending = nil, nil, nil, nil, 0
	dur := time.Since(start)
	e.m.lazyFlushes.Inc()
	e.m.lazyFlush.Observe(dur)
	return dur, nil
}

func (l *Lazy) flushView(mv *ManagedView, inserted map[*xmltree.Node]bool, insAlive []*xmltree.Node) {
	e := l.e
	p := mv.Pattern

	// R for both passes: the final relations with every batch-inserted
	// node masked out — exactly the pre-batch survivors.
	rIn := &Relations{in: excludeInputs(e.Store.Inputs(p), inserted)}

	// Pass 1: deletions. Materialized snowcaps drop bindings inside the
	// detached subtrees first (they were never told about insertions, so
	// after this they equal rIn's state).
	mv.Lattice.ApplyDelete(l.delRoots)
	if len(l.delRoots) > 0 {
		removeRowsUnder(mv, l.delRoots)
		delIn := excludeInputs(e.deltaInputs(p, l.delRoots), inserted)
		terms := mv.deleteTerms
		if !e.opts.DisableDataPruning {
			terms = PruneByDelta(p, terms, delIn)
		}
		if !e.opts.DisableIDPruning {
			terms = PruneByDeletedIDs(p, terms, delIn)
		}
		var storedMask uint64
		for _, i := range p.StoredIndexes() {
			storedMask |= 1 << uint(i)
		}
		for _, rmask := range terms {
			if (p.FullMask()&^rmask)&storedMask != 0 {
				continue // handled by removeRowsUnder
			}
			for _, row := range e.evalTermFrom(mv, rmask, delIn, rIn) {
				mv.View.DecrementBy(row, row.Count)
			}
		}
	}

	// Pass 2: surviving insertions.
	if len(insAlive) > 0 {
		insIn := e.deltaInputs(p, insAlive)
		terms := mv.insertTerms
		if !e.opts.DisableDataPruning {
			terms = PruneByDelta(p, terms, insIn)
		}
		if !e.opts.DisableIDPruning {
			points := make([]*xmltree.Node, 0, len(insAlive))
			for _, r := range insAlive {
				if p := e.Doc.NodeByID(r.ID.Parent()); p != nil {
					points = append(points, p)
				}
			}
			terms = PruneByInsertionPoints(p, terms, points)
		}
		for _, rmask := range terms {
			for _, row := range e.evalTermFrom(mv, rmask, insIn, rIn) {
				mv.View.Upsert(row)
			}
		}
		mv.Lattice.ApplyInsertFrom(insIn, rIn)
	}

	// Refresh stored val/cont of rows whose nodes enclose any touch point.
	e.refreshAround(mv, l.touched)
}

// excludeInputs filters every node's items to those whose live node is not
// in the excluded set. Pointer identity (not IDs) keeps batch-reused Dewey
// ordinals from conflating old and new nodes.
func excludeInputs(in algebra.Inputs, excluded map[*xmltree.Node]bool) algebra.Inputs {
	if len(excluded) == 0 {
		return in
	}
	out := make(algebra.Inputs, len(in))
	for i, items := range in {
		kept := make([]algebra.Item, 0, len(items))
		for _, it := range items {
			if !excluded[it.Node] {
				kept = append(kept, it)
			}
		}
		out[i] = kept
	}
	return out
}
