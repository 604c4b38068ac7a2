package store

import (
	"slices"
	"sort"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// Mat is a materialized lattice node: the stored tuples of one snowcap
// sub-pattern, maintained incrementally alongside the view. It is an
// algebra.Block without live nodes — IDs only, so the structure could live
// on disk; live nodes are re-resolved through the document when needed —
// whose tuples are stripes of len(Cols) IDs in one array, with one count
// each in another: 16 B a binding and 8 B a tuple, no header or pointer of
// a tuple's own. The tuples are kept dense and sorted by their bindings'
// IDs, column by column: a tuple is found by binary search, a removed one
// leaves no slot behind, and Block lends the arrays themselves.
type Mat struct {
	Mask   uint64
	Cols   []int      // pattern node indexes bound by each tuple column
	ids    []dewey.ID // tuple t's bindings are ids[t·w:(t+1)·w], w = len(Cols)
	counts []int
}

// NewMat creates an empty materialization for the snowcap mask of p.
func NewMat(p *pattern.Pattern, mask uint64) *Mat {
	return &Mat{Mask: mask, Cols: pattern.MaskIndexes(mask)}
}

// FillFromBlock resets the materialization to the tuples of b, which must
// bind exactly the mat's columns (any order).
func (m *Mat) FillFromBlock(b algebra.Block) {
	clear(m.ids)
	m.ids, m.counts = m.ids[:0], m.counts[:0]
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

func (m *Mat) tuple(t int) []dewey.ID {
	w := len(m.Cols)
	return m.ids[t*w : (t+1)*w]
}

// find returns where the stripe ids is stored or would go, and whether it
// is stored.
func (m *Mat) find(ids []dewey.ID) (int, bool) {
	i := sort.Search(m.Len(), func(i int) bool { return algebra.CompareTuples(m.tuple(i), ids) >= 0 })
	return i, i < m.Len() && slices.Equal(m.tuple(i), ids)
}

// AddBlock adds all tuples of b (after column permutation), accumulating
// the counts of those already stored, and returns how many were new. A
// permutation of b's stripes is sorted and the new tuples merged in from
// the back, one pass over the arrays however many there are, moving w IDs
// and a count per tuple.
func (m *Mat) AddBlock(b algebra.Block) int {
	perm, w := m.permFrom(b.Cols), len(m.Cols)
	ids := make([]dewey.ID, 0, b.Len()*w) // b's stripes in the mat's column order
	for t := range b.Len() {
		for _, j := range perm {
			ids = append(ids, b.Tuple(t)[j])
		}
	}
	in := func(t int) []dewey.ID { return ids[t*w : (t+1)*w] }
	order := make([]int, b.Len())
	for t := range order {
		order[t] = t
	}
	slices.SortFunc(order, func(s, t int) int { return algebra.CompareTuples(in(s), in(t)) })
	fresh, sums := order[:0], make([]int, 0, len(order)) // new tuples and their counts
	for _, t := range order {
		if n := len(fresh); n > 0 && slices.Equal(in(fresh[n-1]), in(t)) {
			sums[n-1] += b.Counts[t]
		} else if i, ok := m.find(in(t)); ok {
			m.counts[i] += b.Counts[t]
		} else {
			fresh, sums = append(fresh, t), append(sums, b.Counts[t])
		}
	}
	rest := m.Len() // tuples [0, rest) are stored ones not yet in place
	m.ids = slices.Grow(m.ids, len(fresh)*w)[:(rest+len(fresh))*w]
	m.counts = slices.Grow(m.counts, len(fresh))[:rest+len(fresh)]
	for j, at := len(fresh)-1, m.Len()-1; j >= 0; at-- {
		if rest > 0 && algebra.CompareTuples(m.tuple(rest-1), in(fresh[j])) > 0 {
			rest--
			copy(m.tuple(at), m.tuple(rest))
			m.counts[at] = m.counts[rest]
		} else {
			copy(m.tuple(at), in(fresh[j]))
			m.counts[at] = sums[j]
			j--
		}
	}
	return len(fresh)
}

// RemoveIf drops, in a single pass, every tuple whose stripe of bindings,
// in Cols order, drop holds for — one binding a node inside a deleted
// subtree, one binding a node that no longer passes a column's σ — and
// returns the number of tuples removed. The survivors' stripes are
// compacted in place.
func (m *Mat) RemoveIf(drop func(tuple []dewey.ID) bool) int {
	kept := 0
	for t := range m.Len() {
		if !drop(m.tuple(t)) {
			copy(m.tuple(kept), m.tuple(t))
			m.counts[kept] = m.counts[t]
			kept++
		}
	}
	removed := m.Len() - kept
	clear(m.ids[kept*len(m.Cols):])
	m.ids, m.counts = m.ids[:kept*len(m.Cols)], m.counts[:kept]
	return removed
}

// Len returns the number of tuples.
func (m *Mat) Len() int { return len(m.counts) }

// Block returns the tuples as a block binding m.Cols, without Nodes. The
// block is lent, not copied: it is read-only, and good until the Mat is
// next edited.
func (m *Mat) Block() algebra.Block {
	return algebra.Block{
		Cols:   slices.Clip(m.Cols),
		IDs:    slices.Clip(m.ids),
		Counts: slices.Clip(m.counts),
	}
}
