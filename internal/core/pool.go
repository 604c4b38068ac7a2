package core

import (
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/qvm"
	"xivm/internal/store"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Section 3.5 closes with the observation that snowcap materialization can
// be optimized "in a more global fashion: in a context where several views
// are materialized and some snowcaps may be shared, it makes sense to ...
// pick a set of snowcaps sufficient for maintaining all the views". Pool
// implements that sharing: snowcap sub-patterns are deduplicated across
// views by structural signature, each shared sub-pattern is materialized
// once, and maintained once per statement instead of once per view.
//
// Enabled with Options.SharedSnowcaps; each view's lattice then resolves
// its chain masks through the engine's pool, remapping the canonical
// columns back to its own pattern-node indexes.

type poolEntry struct {
	sub   *pattern.Pattern // canonical sub-pattern (indexes 0..k-1)
	mat   *store.Mat
	refs  int
	prog  *qvm.Program // compiled existence program for the sub-pattern
	slots []int        // each node's ∆-table slot in the pool's label set
	terms []uint64     // InsertTerms(sub)
}

// Pool shares materialized snowcaps between views.
type Pool struct {
	store   *store.Store
	join    algebra.JoinFunc
	labels  *update.Labels
	entries map[string]*poolEntry
}

// NewPool creates an empty pool over the engine's store. Registered
// sub-patterns add their labels to labels, the set the statements' ∆
// tables, which ApplyInsert reads, are built over.
func NewPool(st *store.Store, join algebra.JoinFunc, labels *update.Labels) *Pool {
	return &Pool{store: st, join: join, labels: labels, entries: map[string]*poolEntry{}}
}

// Signature canonicalizes a sub-pattern: structure, labels, edges and value
// predicates — everything that determines its extent (stored attributes are
// irrelevant to ID-only materializations).
func Signature(sub *pattern.Pattern) string {
	var b strings.Builder
	var walk func(n *pattern.Node)
	walk = func(n *pattern.Node) {
		if n.Desc {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(n.Label)
		if n.HasPred {
			b.WriteString("[=")
			b.WriteString(n.PredVal)
			b.WriteString("]")
		}
		b.WriteString("(")
		for _, c := range n.Children {
			walk(c)
		}
		b.WriteString(")")
	}
	walk(sub.Root)
	return b.String()
}

// Register materializes (or references) the shared snowcap for the given
// sub-pattern, returning its signature for later lookups.
func (pl *Pool) Register(sub *pattern.Pattern) string {
	sig := Signature(sub)
	if e, ok := pl.entries[sig]; ok {
		e.refs++
		return sig
	}
	m := store.NewMat(sub, sub.FullMask())
	m.FillFromBlock(algebra.EvalSubPattern(sub, sub.FullMask(), pl.store.Inputs(sub), pl.join))
	e := &poolEntry{sub: sub, mat: m, refs: 1, slots: labelSlots(pl.labels, sub), terms: InsertTerms(sub)}
	// The compiled existence program decides "can this sub-pattern match at
	// all?" without building tuples; patterns beyond the compiler's dialect
	// (none today) would simply skip the fast existence path.
	if prog, err := qvm.CompilePattern(sub); err == nil {
		e.prog = prog
	}
	pl.entries[sig] = e
	return sig
}

// Exists reports whether the registered sub-pattern has at least one
// embedding in the document, via its compiled program's early-exit walk.
// The second result is false for unknown signatures.
func (pl *Pool) Exists(sig string, d *xmltree.Document) (bool, bool) {
	e, ok := pl.entries[sig]
	if !ok || e.prog == nil {
		return false, false
	}
	return e.prog.Exists(d), true
}

// Block returns the shared materialization's tuples with columns remapped
// to the caller's pattern-node indexes (orig[i] = caller index of canonical
// node i).
func (pl *Pool) Block(sig string, orig []int) (algebra.Block, bool) {
	e, ok := pl.entries[sig]
	if !ok {
		return algebra.Block{}, false
	}
	b := e.mat.Block()
	cols := make([]int, len(b.Cols))
	for i, c := range b.Cols {
		cols[i] = orig[c]
	}
	b.Cols = cols
	return b, true
}

// Entries returns the number of distinct shared snowcaps.
func (pl *Pool) Entries() int { return len(pl.entries) }

// SharedRefs returns the total reference count across entries (how many
// view-chain slots the pool serves).
func (pl *Pool) SharedRefs() int {
	total := 0
	for _, e := range pl.entries {
		total += e.refs
	}
	return total
}

// ApplyInsert maintains every shared snowcap once for a statement's
// insertions: each entry's additions are its own insertion terms, over its
// σ-filtered read of the statement's ∆+ tables (signatures embed the σ
// predicates, so the filtered inputs are identical for every sharing
// view). Every insertion term joins at least one ∆ table (InsertTerms
// excludes the all-relational mask), so an entry none of whose labels has
// a table entry has every term empty and is skipped.
func (pl *Pool) ApplyInsert(delta update.Delta) {
	for _, e := range pl.entries {
		if !hasDelta(delta, e.slots) {
			continue
		}
		deltaIn := deltaInputs(e.sub, e.slots, delta, pl.store.Doc())
		rIn := &Relations{p: e.sub, st: pl.store}
		full := e.sub.FullMask()
		var additions []algebra.Block
		for _, rmask := range PruneByDelta(e.sub, e.terms, deltaIn) {
			dmask := full &^ rmask
			var blk algebra.Block
			if rmask == 0 {
				blk = algebra.EvalSubPattern(e.sub, full, deltaIn, pl.join)
			} else {
				blk = algebra.EvalSubPattern(e.sub, rmask, rIn.Mask(rmask), pl.join)
				forest, roots := algebra.EvalForest(e.sub, dmask, deltaIn, pl.join)
				blk = algebra.AttachForest(e.sub, blk, forest, roots, pl.join)
			}
			if len(blk.Tuples) > 0 {
				additions = append(additions, blk)
			}
		}
		for _, blk := range additions {
			e.mat.AddBlock(blk)
		}
	}
}

// ApplyDelete drops tuples bound inside deleted subtrees from every shared
// snowcap, once per statement.
func (pl *Pool) ApplyDelete(deleted []*xmltree.Node) {
	if len(deleted) == 0 {
		return
	}
	cover := coverOf(deleted)
	for _, e := range pl.entries {
		e.mat.RemoveUnderAny(cover)
	}
}

func coverOf(deleted []*xmltree.Node) *dewey.Cover {
	ids := make([]dewey.ID, len(deleted))
	for i, n := range deleted {
		ids[i] = n.ID
	}
	return dewey.NewCover(ids)
}
