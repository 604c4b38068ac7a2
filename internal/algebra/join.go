package algebra

import (
	"xivm/internal/dewey"
)

// StructuralJoin joins left (binding the structural parent/ancestor at
// pattern node lIdx) with right (binding the child/descendant at rIdx). It
// is a hash join on Dewey prefixes — no stack, no sorted input, no document
// access: a binding's candidate ancestors are read directly off its ID (the
// frame-aligned proper prefixes of its key for ≺≺, the parent's key for ≺)
// and matched against the left column's keys. desc selects
// ancestor-descendant (≺≺) vs parent-child (≺). Derivation counts multiply.
//
// The hash is built on the smaller side, chosen from the two lengths and
// nothing else. With left no larger than right, left is hashed by its
// binding's key and each right tuple probes with the ancestor keys it wants;
// with right smaller, right is hashed under those same ancestor keys and
// each left tuple probes once with its own. During maintenance one side is a
// ∆ table (Proposition 3.13), so a join costs memory in proportion to the
// update, not to the snowcap it is joined with. The result is the same
// multiset with the same counts either way; the order tuples are emitted in
// differs between the two and is unspecified — every consumer sorts
// (the projection, Mat.AddBlock). The matching pairs are collected first and
// the output's arrays allocated once, to size: nothing is allocated per
// tuple.
func StructuralJoin(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	return (*Scratch)(nil).StructuralJoin(left, lIdx, right, rIdx, desc)
}

// StructuralJoin is the package's StructuralJoin with its hash, its pairs
// and its output carved out of s.
func (s *Scratch) StructuralJoin(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	lCol := left.ColOf(lIdx)
	rCol := right.ColOf(rIdx)
	if lCol < 0 || rCol < 0 {
		panic("algebra: StructuralJoin on unbound column")
	}
	if left.Len() == 0 || right.Len() == 0 {
		return s.joinPairs(left, right, nil)
	}
	h := s.hash(min(left.Len(), right.Len()))
	if right.Len() < left.Len() {
		for i := range right.Len() {
			h.keys = appendAncestorKeys(h.keys[:0], right.Tuple(i)[rCol], desc)
			for _, k := range h.keys {
				h.add(k, i)
			}
		}
		for l := range left.Len() {
			for e := h.first(left.Tuple(l)[lCol].Key()); e >= 0; e = h.chain[e+1] {
				h.pairs = append(h.pairs, l, h.chain[e])
			}
		}
	} else {
		for i := range left.Len() {
			h.add(left.Tuple(i)[lCol].Key(), i)
		}
		for r := range right.Len() {
			h.keys = appendAncestorKeys(h.keys[:0], right.Tuple(r)[rCol], desc)
			for _, k := range h.keys {
				for e := h.first(k); e >= 0; e = h.chain[e+1] {
					h.pairs = append(h.pairs, h.chain[e], r)
				}
			}
		}
	}
	out := s.joinPairs(left, right, h.pairs)
	s.keep(h)
	return out
}

// joinHash is one join's hash: from a key to the last entry added under it,
// each entry a tuple index and the entry added before it under the same key
// (-1 ends a chain), plus the join's matching pairs and one tuple's wanted
// keys.
type joinHash struct {
	head  map[string]int // key → 1 + its last entry's offset in chain
	chain []int
	pairs []int
	keys  []string
}

// hash returns an empty hash for about n keys, the scratch's own when
// there is one.
func (s *Scratch) hash(n int) joinHash {
	if s == nil || s.head == nil {
		return joinHash{head: make(map[string]int, n)}
	}
	clear(s.head)
	return joinHash{head: s.head, chain: s.chain[:0], pairs: s.pairs[:0], keys: s.keys[:0]}
}

// keep hands a join's buffers back to the scratch, unless they grew past
// what the scratch keeps: a large join's hash and pairs go with it.
func (s *Scratch) keep(h joinHash) {
	if s == nil {
		return
	}
	if len(h.head) > mapCap || cap(h.chain) > slabCap || cap(h.pairs) > slabCap {
		h = joinHash{}
	}
	clear(h.keys[:cap(h.keys)])
	s.head, s.chain, s.pairs, s.keys = h.head, h.chain, h.pairs, h.keys[:0]
}

func (h *joinHash) add(k string, t int) {
	h.chain = append(h.chain, t, h.head[k]-1)
	h.head[k] = len(h.chain) - 1
}

// first returns the offset of the last entry added under k, or -1.
func (h *joinHash) first(k string) int { return h.head[k] - 1 }

// appendAncestorKeys appends the key of every node a left binding must be
// for id to join with it: id's proper ancestors for ≺≺, its parent (if it
// has one) for ≺. The keys are substrings of id's own — no ancestor ID is
// built and no key allocated.
func appendAncestorKeys(dst []string, id dewey.ID, desc bool) []string {
	if desc {
		for c := id.Cursor(); c.Next() && !c.Last(); {
			dst = append(dst, c.Key())
		}
	} else if p := id.Parent(); !p.IsNull() {
		dst = append(dst, p.Key())
	}
	return dst
}

// NestedLoopStructuralJoin is the naive O(|L|·|R|) comparison join kept as
// an ablation baseline for StructuralJoin.
func NestedLoopStructuralJoin(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	lCol := left.ColOf(lIdx)
	rCol := right.ColOf(rIdx)
	if lCol < 0 || rCol < 0 {
		panic("algebra: NestedLoopStructuralJoin on unbound column")
	}
	var pairs []int
	for l := range left.Len() {
		lid := left.Tuple(l)[lCol]
		for r := range right.Len() {
			rid := right.Tuple(r)[rCol]
			if desc && lid.IsAncestorOf(rid) || !desc && lid.IsParentOf(rid) {
				pairs = append(pairs, l, r)
			}
		}
	}
	return (*Scratch)(nil).joinPairs(left, right, pairs)
}
