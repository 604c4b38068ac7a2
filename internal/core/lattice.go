package core

import (
	"fmt"
	"math/bits"
	"slices"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
)

// Lattice is the view's auxiliary structure: the sub-pattern lattice of
// Section 3.5, with a materialization policy. Under PolicySnowcaps one
// snowcap per level (the nested chain of pattern.SnowcapChain) is
// materialized; under PolicyLeaves nothing is, and every requested block is
// recomputed from the canonical relations (the lattice leaves).
type Lattice struct {
	Pattern *pattern.Pattern
	Policy  Policy
	store   *store.Store
	join    algebra.JoinFunc
	// chain holds the materialized masks, ascending size, the full view
	// excluded: it starts at the root and each level adds one node whose
	// pattern parent is in the level before (pattern.SnowcapChain).
	chain []uint64
	mats  map[uint64]*store.Mat
}

// Relations is the R side of one view for the length of one statement: its
// σ-filtered canonical relations, read from the store per pattern node the
// first time a join asks for one and kept until the statement ends — a node
// is read and filtered at most once however many terms read it, and a
// relation no join reads is never copied out of the label index. The store
// must not change while one is in use, which the phase order of applyPUL
// guarantees.
type Relations struct {
	p    *pattern.Pattern
	st   *store.Store
	sc   *algebra.Scratch // lends in and the blocks built over it; nil allocates
	in   algebra.Inputs   // the nodes read so far
	read uint64           // which nodes those are
	// undo holds the predicate flips whose nodes are read with σ as it was
	// before the statement (predflip.go): every flip of the view for the
	// statement's propagation, those after the step's own for a step of
	// the flip stage.
	undo []flip
}

// relationsIn returns the view's R side over the store's current state,
// the flips in undo undone, with nothing read yet, in the statement's
// scratch, which lends it the blocks it builds; the one the view before it
// had is dead.
func (l *Lattice) relationsIn(sc *scratch, undo []flip) *Relations {
	sc.rel = Relations{p: l.Pattern, st: l.store, sc: &sc.alg, undo: undo}
	return &sc.rel
}

// Node returns the σ-filtered input of pattern node i.
func (r *Relations) Node(i int) []algebra.Item {
	r.Mask(1 << uint(i))
	return r.in[i]
}

// Mask returns inputs holding at least the nodes of mask. It is where the
// terms, BlockFrom and ApplyInsertFrom read R.
func (r *Relations) Mask(mask uint64) algebra.Inputs {
	for todo := mask &^ r.read; todo != 0; todo &= todo - 1 {
		if r.in == nil {
			r.in = r.sc.Inputs(r.p.Size())
		}
		i := bits.TrailingZeros64(todo)
		r.in[i] = r.st.Input(r.p, i)
		for _, f := range r.undo {
			if f.node == i {
				r.in[i] = f.asBefore(r.in[i])
			}
		}
	}
	r.read |= mask
	return r.in
}

// NewLattice builds (and, under PolicySnowcaps, materializes) the lattice
// for p over the store's current state. The full-pattern snowcap is the
// view itself and is not duplicated here.
func NewLattice(p *pattern.Pattern, policy Policy, st *store.Store, join algebra.JoinFunc) *Lattice {
	l := &Lattice{Pattern: p, Policy: policy, store: st, join: join, mats: map[uint64]*store.Mat{}}
	if policy == PolicySnowcaps {
		l.materialize(st.Inputs(p))
	}
	return l
}

// materialize fills the snowcap chain over in, the pattern's inputs, level
// by level: a level is the level below it joined with the one node it
// adds, so the chain costs one join a level rather than an evaluation of
// each. It returns the last level, the full pattern's relation, which is
// the view's and gets no mat.
func (l *Lattice) materialize(in algebra.Inputs) algebra.Block {
	p := l.Pattern
	chain := p.SnowcapChain()
	blk := algebra.SingleColumn(0, in[0])
	for k, mask := range chain {
		if k > 0 {
			i := bits.TrailingZeros64(mask &^ chain[k-1])
			blk = l.join(blk, p.ParentIndex(i), algebra.SingleColumn(i, in[i]), i, p.Nodes[i].Desc)
		}
		if mask == p.FullMask() {
			break
		}
		m := store.NewMat(p, mask)
		m.FillFromBlock(blk)
		l.mats[mask] = m
		l.chain = append(l.chain, mask)
	}
	return blk
}

// BlockFrom returns the relation for an upward-closed node set: the
// materialized snowcap when available, otherwise an on-the-fly join over
// the canonical relations in r (the Leaves strategy), reading only the
// mask's nodes.
func (l *Lattice) BlockFrom(mask uint64, r *Relations) algebra.Block {
	if m, ok := l.mats[mask]; ok {
		return m.Block()
	}
	return r.sc.EvalSubPattern(l.Pattern, mask, r.Mask(mask), l.join)
}

// Check holds every materialized snowcap to a fresh evaluation of its mask
// over in (algebra.SameRelation): the lattice's oracle. The error names the
// first snowcap that differs.
func (l *Lattice) Check(in algebra.Inputs) error {
	for _, mask := range l.chain {
		got, want := l.mats[mask].Block(), algebra.EvalSubPattern(l.Pattern, mask, in, nil)
		if !algebra.SameRelation(got, want) {
			return fmt.Errorf("snowcap %b holds %d tuples, a fresh evaluation %d, or not the same ones", mask, got.Len(), want.Len())
		}
	}
	return nil
}

// ApplyInsertFrom maintains the snowcap chain after an insertion with the
// recurrence of Proposition 3.13: the additions to level k are the
// additions to level k−1 joined with (R ∪ ∆) of the newly added node, plus
// the OLD level-k−1 content joined with that node's ∆. All joins are
// ∆-sized on at least one side, which is what makes snowcap maintenance
// cheap. A level's additions are committed once the level after it, the
// last reader of its old content, is computed, so no join sees partially
// refreshed data; r must still read the pre-update canonical relations
// when this runs.
func (l *Lattice) ApplyInsertFrom(deltaIn algebra.Inputs, r *Relations) {
	if len(l.chain) == 0 {
		return
	}
	p := l.Pattern
	join := l.join
	if join == nil {
		join = algebra.StructuralJoin
	}
	// The additions to level k−1 and to level k, possibly several blocks
	// each (one per recurrence branch), on the stack while they fit.
	sc := r.sc
	var bufs [2][8]algebra.Block
	prev, cur := bufs[0][:0], bufs[1][:0]
	add := func(out algebra.Block) {
		if out.Len() > 0 {
			cur = append(cur, out)
		}
	}

	rootIdx := addedNode(l.chain, 0)
	add(sc.SingleColumn(rootIdx, deltaIn[rootIdx]))
	for k := 1; k < len(l.chain); k++ {
		prev, cur = cur, prev[:0]
		x := addedNode(l.chain, k)
		pi := p.ParentIndex(x)
		desc := p.Nodes[x].Desc
		dx := sc.SingleColumn(x, deltaIn[x])
		// Branch 1: ∆(level k−1) ⋈ (R ∪ ∆)_x. Join distributes over union, so
		// R_x — the only relation this level reads — is joined where it lies.
		if len(prev) > 0 {
			rx := sc.SingleColumn(x, r.Node(x))
			for _, db := range prev {
				for _, side := range [2]algebra.Block{rx, dx} {
					if side.Len() > 0 {
						add(join(db, pi, side, x, desc))
					}
				}
			}
		}
		// Branch 2: old(level k−1) ⋈ ∆_x.
		below := l.mats[l.chain[k-1]]
		if dx.Len() > 0 {
			add(join(below.Block(), pi, dx, x, desc))
		}
		for _, blk := range prev {
			below.AddBlock(blk)
		}
	}
	for _, blk := range cur {
		l.mats[l.chain[len(l.chain)-1]].AddBlock(blk)
	}
}

// addedNode is the node level k of the chain adds to level k−1 (level 0's
// only node, the root).
func addedNode(chain []uint64, k int) int {
	mask := chain[k]
	if k > 0 {
		mask &^= chain[k-1]
	}
	return bits.TrailingZeros64(mask)
}

// ApplyDelete maintains the materialized snowcaps after a deletion: any
// tuple with a binding inside one of the cover's subtrees, the deleted
// ones, is dropped, in one pass per materialized node. This is the
// searching pass that makes Update Lattice costlier for deletions than for
// insertions, as the paper observes.
func (l *Lattice) ApplyDelete(cover *dewey.Cover) int {
	if cover.Len() == 0 {
		return 0
	}
	removed := 0
	for _, m := range l.mats {
		removed += m.RemoveIf(cover.ContainsAny)
	}
	return removed
}

// applyFlip maintains the snowcaps holding pattern node i after σ_i
// changed under one step of the flip stage (propagateFlips): in holds the
// inputs of that step, the flip-ins at i, whose tuples are added; every
// tuple binding a flip-out at i is dropped, all its derivations having
// bound it.
func (l *Lattice) applyFlip(i int, in algebra.Inputs, out []algebra.Item, sc *algebra.Scratch) {
	for _, mask := range l.chain {
		if !pattern.MaskContains(mask, i) {
			continue
		}
		m := l.mats[mask]
		if len(in[i]) > 0 {
			m.AddBlock(sc.EvalSubPattern(l.Pattern, mask, in, l.join))
		}
		if c := slices.Index(m.Cols, i); len(out) > 0 {
			m.RemoveIf(func(t []dewey.ID) bool { return holds(out, t[c]) })
		}
	}
}
