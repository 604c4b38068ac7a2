package algebra

import (
	"xivm/internal/dewey"
)

// StructuralJoin joins left (binding the structural parent/ancestor at
// pattern node lIdx) with right (binding the child/descendant at rIdx),
// using the Dewey-based structural join: for each right tuple, candidate
// ancestors are read directly off the right binding's ID prefixes and
// located in a hash of the left column — no document access. desc selects
// ancestor-descendant (≺≺) vs parent-child (≺). Derivation counts multiply.
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
	index := make(map[string][]int, len(left.Tuples))
	for i, t := range left.Tuples {
		k := t.Items[lCol].ID.Key()
		index[k] = append(index[k], i)
	}
	emit := func(li int, rt Tuple) {
		lt := left.Tuples[li]
		items := make([]Item, 0, len(lt.Items)+len(rt.Items))
		items = append(items, lt.Items...)
		items = append(items, rt.Items...)
		out.Tuples = append(out.Tuples, Tuple{Items: items, Count: lt.Count * rt.Count})
	}
	for _, rt := range right.Tuples {
		id := rt.Items[rCol].ID
		if desc {
			// Candidate ancestors are the frame-aligned proper prefixes of
			// the right binding's key: one cursor pass probes each, with no
			// ancestor ID construction and no key allocation.
			for c := id.Cursor(); c.Next() && !c.Last(); {
				for _, li := range index[c.Key()] {
					emit(li, rt)
				}
			}
		} else {
			p := id.Parent()
			if p.IsNull() {
				continue
			}
			for _, li := range index[p.Key()] {
				emit(li, rt)
			}
		}
	}
	return out
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

// PathFilterItems keeps only the items whose label path satisfies the given
// linear path condition — the Path Filter physical operator.
func PathFilterItems(items []Item, steps []dewey.PathStep) []Item {
	out := items[:0:0]
	for _, it := range items {
		if it.ID.MatchesPath(steps) {
			out = append(out, it)
		}
	}
	return out
}

// PathNavigateItems maps each item to its parent ID — the Path Navigate
// physical operator (IDs only; no document access).
func PathNavigateItems(items []Item) []Item {
	out := make([]Item, 0, len(items))
	for _, it := range items {
		p := it.ID.Parent()
		if !p.IsNull() {
			out = append(out, Item{ID: p})
		}
	}
	return out
}
