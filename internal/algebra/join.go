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
// (projectBlock, Mat.AddBlock).
func StructuralJoin(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	lCol := left.ColOf(lIdx)
	rCol := right.ColOf(rIdx)
	if lCol < 0 || rCol < 0 {
		panic("algebra: StructuralJoin on unbound column")
	}
	out := Block{Cols: append(append([]int{}, left.Cols...), right.Cols...)}
	if len(left.Tuples) == 0 || len(right.Tuples) == 0 {
		return out
	}
	emit := func(lt, rt Tuple) {
		items := make([]Item, 0, len(lt.Items)+len(rt.Items))
		items = append(items, lt.Items...)
		items = append(items, rt.Items...)
		out.Tuples = append(out.Tuples, Tuple{Items: items, Count: lt.Count * rt.Count})
	}
	var keys []string // one buffer for every right tuple's wanted keys
	if len(right.Tuples) < len(left.Tuples) {
		index := make(map[string][]int, len(right.Tuples))
		for i, rt := range right.Tuples {
			keys = appendAncestorKeys(keys[:0], rt.Items[rCol].ID, desc)
			for _, k := range keys {
				index[k] = append(index[k], i)
			}
		}
		for _, lt := range left.Tuples {
			for _, ri := range index[lt.Items[lCol].ID.Key()] {
				emit(lt, right.Tuples[ri])
			}
		}
		return out
	}
	index := make(map[string][]int, len(left.Tuples))
	for i, lt := range left.Tuples {
		k := lt.Items[lCol].ID.Key()
		index[k] = append(index[k], i)
	}
	for _, rt := range right.Tuples {
		keys = appendAncestorKeys(keys[:0], rt.Items[rCol].ID, desc)
		for _, k := range keys {
			for _, li := range index[k] {
				emit(left.Tuples[li], rt)
			}
		}
	}
	return out
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
	out := Block{Cols: append(append([]int{}, left.Cols...), right.Cols...)}
	for _, lt := range left.Tuples {
		lid := lt.Items[lCol].ID
		for _, rt := range right.Tuples {
			rid := rt.Items[rCol].ID
			ok := false
			if desc {
				ok = lid.IsAncestorOf(rid)
			} else {
				ok = lid.IsParentOf(rid)
			}
			if !ok {
				continue
			}
			items := make([]Item, 0, len(lt.Items)+len(rt.Items))
			items = append(items, lt.Items...)
			items = append(items, rt.Items...)
			out.Tuples = append(out.Tuples, Tuple{Items: items, Count: lt.Count * rt.Count})
		}
	}
	return out
}
