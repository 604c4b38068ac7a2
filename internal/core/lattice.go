package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
)

// Lattice is the view's auxiliary structure: the sub-pattern lattice of
// Section 3.5, with a materialization policy. Under PolicySnowcaps one
// snowcap per level (the nested chain of pattern.SnowcapChain) is
// materialized; under PolicyLeaves nothing is, and a term joins its ∆ with
// the canonical relations (the lattice leaves), read only where the ∆'s
// IDs say they can join it (Relations.Around).
type Lattice struct {
	Pattern *pattern.Pattern
	Policy  Policy
	store   *store.Store
	join    algebra.JoinFunc
	// chain holds the materialized masks, ascending size, the full view
	// excluded: it starts at the root and each level adds one node whose
	// pattern parent is in the level before (pattern.SnowcapChain).
	chain []uint64
	mats  map[uint64]*store.Mat // nil under PolicyLeaves
}

// Relations is the R side of one view for the length of one statement.
// A term reads it through Around, which reads of each relation only the
// nodes that can join the term's ∆ bindings, found from their Dewey IDs;
// the snowcap lattice's maintenance reads whole relations (Node), each
// read and σ-filtered at most once however many levels read it. The store
// must not change while one is in use, which the phase order of applyPUL
// guarantees.
type Relations struct {
	p     *pattern.Pattern
	st    *store.Store
	sc    *scratch       // the statement's: it lends what the reads return
	whole algebra.Inputs // the nodes read whole so far
	read  uint64         // which nodes those are
	// undo holds the predicate flips whose nodes are read with σ as it was
	// before the statement (predflip.go): every flip of the view for the
	// statement's propagation, those after the step's own for a step of
	// the flip stage.
	undo []flip
}

// relationsIn returns the view's R side over the store's current state,
// the flips in undo undone, with nothing read yet, in the statement's
// scratch, which lends it what it reads; the one the view before it had
// is dead.
func (l *Lattice) relationsIn(sc *scratch, undo []flip) *Relations {
	sc.rel = Relations{p: l.Pattern, st: l.store, sc: sc, undo: undo}
	return &sc.rel
}

// Node returns the σ-filtered input of pattern node i, read whole.
func (r *Relations) Node(i int) []algebra.Item {
	if r.read&(1<<uint(i)) == 0 {
		if r.whole == nil {
			r.whole = r.sc.algebra().Inputs(r.p.Size())
		}
		r.whole[i] = r.undone(i, r.st.Input(r.p, i))
		r.read |= 1 << uint(i)
	}
	return r.whole[i]
}

// undone returns node i's σ-filtered items, a slice the caller owns, with
// the flips of i in undo undone.
func (r *Relations) undone(i int, items []algebra.Item) []algebra.Item {
	for _, f := range r.undo {
		if f.node == i {
			items = f.asBefore(items)
		}
	}
	return items
}

// Around fills in, for every pattern node outside seeds, the part of its
// σ-filtered relation that can join the seeds' bindings, which in holds:
// the semijoin reduction of the pattern towards the seeds, driven by the
// IDs. A node above a seed is read upwards, deepest first: at the keys of
// the ancestors its children's bindings name (their parent's for a /
// edge) that carry its label, one probe of its label's list a key. Every
// other node is read downwards, in preorder, as the nodes of its relation
// under its parent's bindings, one key range a binding. The reduction
// keeps every binding of every embedding that binds the seeds as in does,
// so the pattern evaluated over in is what it is over the whole relations;
// a "*" or "~word" node is read whole. A term's seeds are its ∆ nodes, a
// flip's its flipped node.
func (r *Relations) Around(seeds uint64, in algebra.Inputs) {
	p := r.p
	var up uint64 // the nodes above a seed
	for m := seeds; m != 0; m &= m - 1 {
		for j := p.ParentIndex(bits.TrailingZeros64(m)); j >= 0; j = p.ParentIndex(j) {
			up |= 1 << uint(j)
		}
	}
	up &^= seeds
	for j := p.Size() - 1; j >= 0; j-- {
		if pattern.MaskContains(up, j) {
			in[j] = r.above(j, in, seeds|up)
		}
	}
	for j := range p.Size() {
		if !pattern.MaskContains(seeds|up, j) {
			in[j] = r.below(j, in)
		}
	}
}

// above reads node j's part of its relation for Around at the ancestor
// keys its children in bound name.
func (r *Relations) above(j int, in algebra.Inputs, bound uint64) []algebra.Item {
	pn := r.p.Nodes[j]
	if wholeRead(pn) {
		return r.Node(j)
	}
	sc := r.sc
	keys := sc.ancestors[:0]
	for _, c := range pn.Children {
		if pattern.MaskContains(bound, c.Index) {
			for _, it := range in[c.Index] {
				keys = appendAncestorsLabeled(keys, it.ID, c.Desc, pn.Label)
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	sc.ancestors = keys
	start := len(sc.reads)
	sc.reads = r.st.Probe(sc.reads, pn.Label, keys)
	return r.admit(j, start)
}

// below reads node j's part of its relation for Around under its parent's
// bindings in in.
func (r *Relations) below(j int, in algebra.Inputs) []algebra.Item {
	pi := r.p.ParentIndex(j)
	if pi < 0 || wholeRead(r.p.Nodes[j]) {
		return r.Node(j)
	}
	start := len(r.sc.reads)
	r.sc.reads = r.st.Under(r.sc.reads, r.p.Nodes[j].Label, in[pi])
	return r.admit(j, start)
}

// admit returns what a reduced read of node j appended to the scratch's
// reads after start as a whole read would return it: σ-filtered, the root
// anchor applied, the flips of j undone.
func (r *Relations) admit(j, start int) []algebra.Item {
	sc := r.sc
	items := sc.alg.Filter(slices.Clip(sc.reads[start:]), r.p.Nodes[j], nil)
	if j == 0 {
		items = sc.alg.FilterRootAnchor(r.p, items)
	}
	return r.undone(j, items)
}

// wholeRead reports whether a pattern node's relation is read whole: R_*
// and R_~word are no label's list to probe.
func wholeRead(pn *pattern.Node) bool {
	return pn.Label == "*" || strings.HasPrefix(pn.Label, "~")
}

// appendAncestorsLabeled appends the keys of id's proper ancestors that
// carry label — of its parent alone, if it does, when desc is false. The
// keys are substrings of id's own: no ancestor ID is built.
func appendAncestorsLabeled(dst []string, id dewey.ID, desc bool, label string) []string {
	if !desc {
		if pa := id.Parent(); !pa.IsNull() && pa.Label() == label {
			dst = append(dst, pa.Key())
		}
		return dst
	}
	for c := id.Cursor(); c.Next() && !c.Last(); {
		if c.Label() == label {
			dst = append(dst, c.Key())
		}
	}
	return dst
}

// NewLattice builds (and, under PolicySnowcaps, materializes) the lattice
// for p over the store's current state. The full-pattern snowcap is the
// view itself and is not duplicated here.
func NewLattice(p *pattern.Pattern, policy Policy, st *store.Store, join algebra.JoinFunc) *Lattice {
	l := &Lattice{Pattern: p, Policy: policy, store: st, join: join}
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
	l.mats = make(map[uint64]*store.Mat, len(chain))
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
	sc := r.sc.algebra()
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
// inputs of that step, the flip-ins at i, nil if there are none, whose
// tuples are added; every tuple binding a flip-out at i is dropped, all
// its derivations having bound it.
func (l *Lattice) applyFlip(i int, in algebra.Inputs, out []algebra.Item, sc *algebra.Scratch) {
	for _, mask := range l.chain {
		if !pattern.MaskContains(mask, i) {
			continue
		}
		m := l.mats[mask]
		if in != nil {
			m.AddBlock(sc.EvalSubPattern(l.Pattern, mask, in, l.join))
		}
		if c := slices.Index(m.Cols, i); len(out) > 0 {
			m.RemoveIf(func(t []dewey.ID) bool { return holds(out, t[c]) })
		}
	}
}
