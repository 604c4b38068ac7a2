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
// (projectBlock, Mat.AddBlock). The matching pairs are collected first and
// the output's arrays allocated once, to size: nothing is allocated per
// tuple.
func StructuralJoin(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	lCol := left.ColOf(lIdx)
	rCol := right.ColOf(rIdx)
	if lCol < 0 || rCol < 0 {
		panic("algebra: StructuralJoin on unbound column")
	}
	var buf [32]int
	pairs := buf[:0] // l, r of each joined pair; a ∆-sized join's fit in buf
	if left.Len() == 0 || right.Len() == 0 {
		return joinPairs(left, right, nil)
	}
	var keys []string // one buffer for every right tuple's wanted keys
	if right.Len() < left.Len() {
		index := make(map[string][]int, right.Len())
		for i := range right.Len() {
			keys = appendAncestorKeys(keys[:0], right.Tuple(i)[rCol], desc)
			for _, k := range keys {
				index[k] = append(index[k], i)
			}
		}
		for l := range left.Len() {
			for _, r := range index[left.Tuple(l)[lCol].Key()] {
				pairs = append(pairs, l, r)
			}
		}
		return joinPairs(left, right, pairs)
	}
	index := make(map[string][]int, left.Len())
	for i := range left.Len() {
		k := left.Tuple(i)[lCol].Key()
		index[k] = append(index[k], i)
	}
	for r := range right.Len() {
		keys = appendAncestorKeys(keys[:0], right.Tuple(r)[rCol], desc)
		for _, k := range keys {
			for _, l := range index[k] {
				pairs = append(pairs, l, r)
			}
		}
	}
	return joinPairs(left, right, pairs)
}

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
	return joinPairs(left, right, pairs)
}
