package core

import (
	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// Lattice is the view's auxiliary structure: the sub-pattern lattice of
// Section 3.5, with a materialization policy. Under PolicySnowcaps one
// snowcap per level (a nested chain) is materialized; under PolicyLeaves
// nothing is, and every requested block is recomputed from the canonical
// relations (the lattice leaves).
type Lattice struct {
	Pattern *pattern.Pattern
	Policy  Policy
	store   *store.Store
	join    algebra.JoinFunc
	chain   []uint64 // materialized masks, ascending size (excludes full view)
	mats    map[uint64]*store.Mat
	// Pooled mode: masks resolve through a shared cross-view pool; the
	// engine maintains the pool once per statement, so the per-view
	// maintenance entry points become no-ops.
	pool   *Pool
	pooled map[uint64]pooledRef
}

type pooledRef struct {
	sig  string
	orig []int // canonical node index -> view pattern node index
}

// Relations is the R side of one view for the length of one statement: its
// σ-filtered canonical relations, read from the store per pattern node the
// first time a join asks for one and kept until the statement ends — a node
// is read and filtered at most once however many terms read it, and a
// relation no join reads is never copied out of the label index. The store
// must not change while one is in use, which the phase order of applyPUL
// guarantees.
type Relations struct {
	p  *pattern.Pattern
	st *store.Store   // nil when in was supplied whole (deferred flushing masks its own)
	in algebra.Inputs // the nodes read so far
}

// Relations returns the view's R side over the store's current state, with
// nothing read yet.
func (l *Lattice) Relations() *Relations { return &Relations{p: l.Pattern, st: l.store} }

// Node returns the σ-filtered input of pattern node i.
func (r *Relations) Node(i int) []algebra.Item {
	items, ok := r.in[i]
	if !ok && r.st != nil {
		if r.in == nil {
			r.in = make(algebra.Inputs, r.p.Size())
		}
		items = r.st.Input(r.p, i)
		r.in[i] = items
	}
	return items
}

// Mask returns inputs holding at least the nodes of mask.
func (r *Relations) Mask(mask uint64) algebra.Inputs {
	for _, i := range pattern.MaskIndexes(mask) {
		r.Node(i)
	}
	return r.in
}

// NewLattice builds (and, under PolicySnowcaps, materializes) the lattice
// for p over the store's current state. The full-pattern snowcap is the
// view itself and is not duplicated here.
func NewLattice(p *pattern.Pattern, policy Policy, st *store.Store, join algebra.JoinFunc) *Lattice {
	if policy != PolicySnowcaps {
		l := NewLatticeMasks(p, nil, st, join)
		l.Policy = policy
		return l
	}
	return NewLatticeMasks(p, p.SnowcapChain(), st, join)
}

// NewLatticeMasks materializes exactly the given snowcap masks (the full
// pattern, which is the view itself, is skipped). This is the entry point
// the cost-based optimizer uses.
func NewLatticeMasks(p *pattern.Pattern, masks []uint64, st *store.Store, join algebra.JoinFunc) *Lattice {
	l := &Lattice{Pattern: p, Policy: PolicySnowcaps, store: st, join: join, mats: map[uint64]*store.Mat{}}
	if len(masks) == 0 {
		l.Policy = PolicyLeaves
		return l
	}
	in := st.Inputs(p)
	for _, mask := range masks {
		if mask == p.FullMask() {
			continue
		}
		if !p.IsSnowcap(mask) {
			panic("core: NewLatticeMasks given a non-snowcap mask")
		}
		m := store.NewMat(p, mask)
		m.FillFromBlock(algebra.EvalSubPattern(p, mask, in, join))
		l.mats[mask] = m
		l.chain = append(l.chain, mask)
	}
	return l
}

// NewLatticePooled resolves the given snowcap masks through a shared
// cross-view pool instead of materializing privately.
func NewLatticePooled(p *pattern.Pattern, masks []uint64, pool *Pool, st *store.Store, join algebra.JoinFunc) *Lattice {
	l := &Lattice{Pattern: p, Policy: PolicySnowcaps, store: st, join: join,
		mats: map[uint64]*store.Mat{}, pool: pool, pooled: map[uint64]pooledRef{}}
	for _, mask := range masks {
		if mask == p.FullMask() {
			continue
		}
		if !p.IsSnowcap(mask) {
			panic("core: NewLatticePooled given a non-snowcap mask")
		}
		sub, orig := p.SubPattern(mask)
		sig := pool.Register(sub)
		l.pooled[mask] = pooledRef{sig: sig, orig: orig}
		l.chain = append(l.chain, mask)
	}
	return l
}

// Materialized returns the materialized masks in ascending size order.
func (l *Lattice) Materialized() []uint64 { return l.chain }

// TupleCount returns the total number of live tuples across materialized
// lattice nodes.
func (l *Lattice) TupleCount() int {
	total := 0
	for _, m := range l.mats {
		total += m.Len()
	}
	return total
}

// Block returns the relation for an upward-closed node set: the
// materialized snowcap when available, otherwise an on-the-fly join over
// the canonical relations (the Leaves strategy).
func (l *Lattice) Block(mask uint64) algebra.Block {
	return l.BlockFrom(mask, l.Relations())
}

// BlockFrom is Block reading the on-the-fly case's inputs from r — only the
// mask's nodes, and only when the mask is not materialized.
func (l *Lattice) BlockFrom(mask uint64, r *Relations) algebra.Block {
	if ref, ok := l.pooled[mask]; ok {
		if b, found := l.pool.Block(ref.sig, ref.orig); found {
			return b
		}
	}
	if m, ok := l.mats[mask]; ok {
		return m.Block()
	}
	return algebra.EvalSubPattern(l.Pattern, mask, r.Mask(mask), l.join)
}

// ApplyInsertFrom maintains every materialized snowcap after an insertion,
// using Proposition 3.13: each snowcap's additions are the union terms of
// its own sub-pattern, computed from smaller blocks and the ∆+ inputs. All
// additions are computed against the pre-update state first, then
// committed, so no term sees partially refreshed data. r must still read
// the pre-update canonical relations when this runs. Nested
// one-node-per-level chains (the PolicySnowcaps layout) use the cheap
// recurrence of Proposition 3.13's proof; arbitrary materialized sets fall
// back to per-snowcap term expansion.
func (l *Lattice) ApplyInsertFrom(deltaIn algebra.Inputs, r *Relations) {
	if l.pool != nil {
		return // the engine maintains the shared pool once per statement
	}
	if len(l.chain) == 0 {
		return
	}
	if l.chainIsNested() {
		l.applyInsertChain(deltaIn, r)
		return
	}
	p := l.Pattern
	additions := make(map[uint64][]algebra.Block, len(l.chain))
	for _, mask := range l.chain {
		for _, rmask := range snowcapTerms(p, mask) {
			blk := l.termBlockFrom(mask, rmask, deltaIn, r)
			if len(blk.Tuples) > 0 {
				additions[mask] = append(additions[mask], blk)
			}
		}
	}
	for _, mask := range l.chain {
		for _, blk := range additions[mask] {
			l.mats[mask].AddBlock(blk)
		}
	}
}

// chainIsNested reports whether the materialized masks form a strict chain
// growing by exactly one node per level, starting from a single node.
func (l *Lattice) chainIsNested() bool {
	p := l.Pattern
	for k, mask := range l.chain {
		want := k + 1
		if len(pattern.MaskIndexes(mask)) != want {
			return false
		}
		if k > 0 && l.chain[k-1]&^mask != 0 {
			return false
		}
		// The added node's pattern parent must already be in the previous
		// level (true for snowcaps, asserted for safety).
		if k > 0 {
			added := pattern.MaskIndexes(mask &^ l.chain[k-1])
			if len(added) != 1 {
				return false
			}
			if pi := p.ParentIndex(added[0]); pi >= 0 && !pattern.MaskContains(l.chain[k-1], pi) {
				return false
			}
		}
	}
	return true
}

// applyInsertChain maintains a nested snowcap chain with the recurrence of
// Proposition 3.13: the additions to level k are the additions to level
// k−1 joined with (R ∪ ∆) of the newly added node, plus the OLD level-k−1
// content joined with that node's ∆. All joins are ∆-sized on at least one
// side, which is what makes snowcap maintenance cheap.
func (l *Lattice) applyInsertChain(deltaIn algebra.Inputs, r *Relations) {
	p := l.Pattern
	join := l.join
	if join == nil {
		join = algebra.StructuralJoin
	}
	// Additions per level, possibly several blocks (one per recurrence
	// branch); committed only after every level is computed against the old
	// state.
	additions := make([][]algebra.Block, len(l.chain))
	add := func(k int, out algebra.Block) {
		if len(out.Tuples) > 0 {
			additions[k] = append(additions[k], out)
		}
	}

	rootIdx := pattern.MaskIndexes(l.chain[0])[0]
	add(0, algebra.SingleColumn(rootIdx, deltaIn[rootIdx]))
	for k := 1; k < len(l.chain); k++ {
		x := pattern.MaskIndexes(l.chain[k] &^ l.chain[k-1])[0]
		pi := p.ParentIndex(x)
		desc := p.Nodes[x].Desc
		dx := algebra.SingleColumn(x, deltaIn[x])
		// Branch 1: ∆(level k−1) ⋈ (R ∪ ∆)_x. Join distributes over union, so
		// R_x — the only relation this level reads — is joined where it lies.
		if len(additions[k-1]) > 0 {
			rx := algebra.SingleColumn(x, r.Node(x))
			for _, db := range additions[k-1] {
				for _, side := range [2]algebra.Block{rx, dx} {
					if len(side.Tuples) > 0 {
						add(k, join(db, pi, side, x, desc))
					}
				}
			}
		}
		// Branch 2: old(level k−1) ⋈ ∆_x.
		if len(dx.Tuples) > 0 {
			add(k, join(l.mats[l.chain[k-1]].Block(), pi, dx, x, desc))
		}
	}
	for k, mask := range l.chain {
		for _, blk := range additions[k] {
			l.mats[mask].AddBlock(blk)
		}
	}
}

// snowcapTerms enumerates the insertion terms of the sub-pattern induced by
// mask: R-masks that are upward-closed within mask (and proper subsets).
func snowcapTerms(p *pattern.Pattern, mask uint64) []uint64 {
	var out []uint64
	idxs := pattern.MaskIndexes(mask)
	n := len(idxs)
	for sub := uint64(0); sub < 1<<uint(n); sub++ {
		var rmask uint64
		for b, idx := range idxs {
			if sub&(1<<uint(b)) != 0 {
				rmask |= 1 << uint(idx)
			}
		}
		if rmask == mask {
			continue
		}
		if upClosedWithin(p, rmask, mask) {
			out = append(out, rmask)
		}
	}
	return out
}

// upClosedWithin reports whether rmask is upward-closed inside mask: for
// every node in rmask, its closest ancestor within mask is also in rmask.
func upClosedWithin(p *pattern.Pattern, rmask, mask uint64) bool {
	for _, i := range pattern.MaskIndexes(rmask) {
		pi := p.ParentIndex(i)
		for pi >= 0 && !pattern.MaskContains(mask, pi) {
			pi = p.ParentIndex(pi)
		}
		if pi < 0 {
			continue
		}
		if !pattern.MaskContains(rmask, pi) {
			return false
		}
	}
	return true
}

// termBlock evaluates one term of a sub-pattern: block for rmask joined
// with the ∆ forest covering mask\rmask. Forest roots attach to their
// closest ancestor within mask.
func (l *Lattice) termBlockFrom(mask, rmask uint64, deltaIn algebra.Inputs, r *Relations) algebra.Block {
	dmask := mask &^ rmask
	if rmask == 0 {
		return l.evalMaskWith(mask, deltaIn, nil)
	}
	return l.evalMaskWith(dmask, deltaIn, &boundary{base: l.BlockFrom(rmask, r), rmask: rmask})
}

type boundary struct {
	base  algebra.Block
	rmask uint64
}

// evalMaskWith evaluates the sub-forest induced by dmask over deltaIn and,
// when b is non-nil, joins each forest root against its closest ancestor in
// b's R-mask. With b nil, dmask must be upward-closed within itself (a
// single sub-pattern) — used for the all-∆ term.
func (l *Lattice) evalMaskWith(dmask uint64, deltaIn algebra.Inputs, b *boundary) algebra.Block {
	p := l.Pattern
	if b == nil {
		return algebra.EvalSubPattern(p, dmask, deltaIn, l.join)
	}
	block := b.base
	// Identify forest roots of dmask and their attachment point in rmask.
	for _, i := range pattern.MaskIndexes(dmask) {
		pi := p.ParentIndex(i)
		if pi >= 0 && pattern.MaskContains(dmask, pi) {
			continue // interior node of the ∆ forest
		}
		// Closest ancestor inside rmask; the edge kind is // when any hop
		// on the way (or the node's own edge) is a descendant edge.
		desc := p.Nodes[i].Desc
		anc := pi
		for anc >= 0 && !pattern.MaskContains(b.rmask, anc) {
			desc = true // skipping an unconstrained intermediate level
			anc = p.ParentIndex(anc)
		}
		if anc < 0 {
			// No ancestor in the block: cross product is not meaningful for
			// tree patterns rooted at node 0; this cannot happen because
			// rmask is upward-closed and contains the root.
			panic("core: ∆ forest root with no ancestor in the R block")
		}
		sub := subMaskOf(p, i) & dmask
		fb := algebra.EvalSubPattern(p, sub, deltaIn, l.join)
		block = joinWithAxis(l.join, block, anc, fb, i, desc)
	}
	return block
}

func joinWithAxis(join algebra.JoinFunc, left algebra.Block, lIdx int, right algebra.Block, rIdx int, desc bool) algebra.Block {
	if join == nil {
		join = algebra.StructuralJoin
	}
	return join(left, lIdx, right, rIdx, desc)
}

func subMaskOf(p *pattern.Pattern, i int) uint64 {
	var m uint64
	m |= 1 << uint(i)
	for j := i + 1; j < p.Size(); j++ {
		if p.IsAncestor(i, j) {
			m |= 1 << uint(j)
		}
	}
	return m
}

// ApplyDelete maintains the materialized snowcaps after a deletion: any
// tuple with a binding inside a deleted subtree is dropped, in one pass per
// materialized node. This is the searching pass that makes Update Lattice
// costlier for deletions than for insertions, as the paper observes.
func (l *Lattice) ApplyDelete(deletedRoots []*xmltree.Node) int {
	if l.pool != nil || len(deletedRoots) == 0 {
		return 0 // pooled snowcaps are maintained by the engine
	}
	ids := make([]dewey.ID, len(deletedRoots))
	for i, r := range deletedRoots {
		ids[i] = r.ID
	}
	cover := dewey.NewCover(ids)
	removed := 0
	for _, m := range l.mats {
		removed += m.RemoveUnderAny(cover)
	}
	return removed
}
