package store

import (
	"slices"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// Mat is a materialized lattice node: the stored tuples of one snowcap
// sub-pattern, maintained incrementally alongside the view. Tuples are
// stored standalone (IDs only) so the structure could live on disk; live
// node pointers are re-resolved through the document when needed. They are
// kept dense and sorted by their bindings' IDs, column by column: a tuple is
// found by binary search, a removed one leaves no slot behind, and Block
// lends the array itself.
type Mat struct {
	Mask uint64
	Cols []int // pattern node indexes bound by each tuple column
	tups []algebra.Tuple
}

// NewMat creates an empty materialization for the snowcap mask of p.
func NewMat(p *pattern.Pattern, mask uint64) *Mat {
	return &Mat{Mask: mask, Cols: pattern.MaskIndexes(mask)}
}

// FillFromBlock resets the materialization to the tuples of b, which must
// bind exactly the mat's columns (any order).
func (m *Mat) FillFromBlock(b algebra.Block) {
	clear(m.tups)
	m.tups = m.tups[:0]
	m.AddBlock(b)
}

func (m *Mat) permFrom(cols []int) []int {
	perm := make([]int, len(m.Cols))
	for i, want := range m.Cols {
		perm[i] = -1
		for j, have := range cols {
			if have == want {
				perm[i] = j
				break
			}
		}
		if perm[i] < 0 {
			panic("store: block does not bind materialized column")
		}
	}
	return perm
}

func permuteTuple(t algebra.Tuple, perm []int) algebra.Tuple {
	items := make([]algebra.Item, len(perm))
	for i, j := range perm {
		items[i] = algebra.Item{ID: t.Items[j].ID} // strip live pointers
	}
	return algebra.Tuple{Items: items, Count: t.Count}
}

// AddBlock adds all tuples of b (after column permutation), accumulating
// the counts of those already stored, and returns how many were new. The
// block is sorted and the new tuples merged in from the back, one pass over
// the array however many there are.
func (m *Mat) AddBlock(b algebra.Block) int {
	perm := m.permFrom(b.Cols)
	batch := make([]algebra.Tuple, len(b.Tuples))
	for i, t := range b.Tuples {
		batch[i] = permuteTuple(t, perm)
	}
	slices.SortFunc(batch, algebra.CompareTuples)
	fresh := batch[:0]
	for _, t := range batch {
		if n := len(fresh); n > 0 && algebra.CompareTuples(fresh[n-1], t) == 0 {
			fresh[n-1].Count += t.Count
		} else if i, ok := slices.BinarySearchFunc(m.tups, t, algebra.CompareTuples); ok {
			m.tups[i].Count += t.Count
		} else {
			fresh = append(fresh, t)
		}
	}
	rest := len(m.tups) // tups[:rest] are stored tuples not yet in place
	m.tups = append(m.tups, fresh...)
	for j, at := len(fresh)-1, len(m.tups)-1; j >= 0; at-- {
		if rest > 0 && algebra.CompareTuples(m.tups[rest-1], fresh[j]) > 0 {
			rest--
			m.tups[at] = m.tups[rest]
		} else {
			m.tups[at] = fresh[j]
			j--
		}
	}
	return len(fresh)
}

// RemoveUnderAny drops, in a single pass, every tuple in which ANY column
// binds a node inside the cover (a deleted subtree), returning the number
// of tuples removed.
func (m *Mat) RemoveUnderAny(cover *dewey.Cover) int {
	kept := 0
	for _, t := range m.tups {
		if !slices.ContainsFunc(t.Items, func(it algebra.Item) bool { return cover.Contains(it.ID) }) {
			m.tups[kept] = t
			kept++
		}
	}
	removed := len(m.tups) - kept
	clear(m.tups[kept:])
	m.tups = m.tups[:kept]
	return removed
}

// Len returns the number of tuples.
func (m *Mat) Len() int { return len(m.tups) }

// Block returns the tuples as a block binding m.Cols. The block is lent,
// not copied: it is read-only, and good until the Mat is next edited.
func (m *Mat) Block() algebra.Block {
	return algebra.Block{Cols: m.Cols[:len(m.Cols):len(m.Cols)], Tuples: m.tups[:len(m.tups):len(m.tups)]}
}
