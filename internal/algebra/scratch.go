package algebra

import (
	"xivm/internal/dewey"
	"xivm/internal/xmltree"
)

// Scratch is the memory one writer's propagation uses and discards within
// a statement: the arrays of ∆ inputs, σ-filtered items, single-column
// blocks, join outputs and projections, and one join's hash, pairs and
// wanted keys. Its methods are the package's operators, each carving what
// it returns out of the scratch instead of allocating it; a nil *Scratch
// allocates everything fresh, as the package functions do. Nothing it
// hands out may outlive Reset: whatever a view's rows or a snowcap keeps
// is copied out of it (Mat.AddBlock copies its stripes, a projected row
// clones its cells at their exact size). A Scratch is single-goroutine,
// and every slab keeps at most slabCap elements across a Reset, so a
// statement with a large ∆ allocates what it needs beyond that afresh.
type Scratch struct {
	ids    slab[dewey.ID]
	nodes  slab[*xmltree.Node]
	ints   slab[int]
	items  slab[Item]
	inputs slab[[]Item]
	rows   slab[Row]
	cells  slab[string]

	// One join's working state, consumed before the join returns: its
	// hash from a key to the head of a chain of entries, the entries
	// (tuple, next) flat, the pairs it matched and one tuple's wanted
	// keys.
	head  map[string]int
	chain []int
	pairs []int
	keys  []string
}

// slabCap is the most elements one slab keeps across a Reset; a request
// for more than a quarter of it is never lent.
const slabCap = 1 << 12

// mapCap is the most entries a join's hash may have held and still be
// kept for the next join: clearing a map costs its buckets, not its
// entries. A join's pairs and chain are kept up to slabCap.
const mapCap = 1 << 8

// slab lends slices of one array: take reserves the next k elements, Reset
// zeroes what was lent and starts over. A slab that runs out moves to a new
// array and leaves the old one to the slices already lent from it.
type slab[T any] struct {
	buf []T
	n   int // elements lent since the last reset
}

// take returns an empty slice with room for exactly k elements: lent from
// the slab, or of its own when s is nil or k is too large to lend. Its
// capacity is clamped, so an append past it never writes into a neighbour.
func take[T any](s *slab[T], k int) []T {
	if s == nil || k > slabCap/4 {
		return make([]T, 0, k)
	}
	if s.n+k > cap(s.buf) {
		s.buf, s.n = make([]T, min(max(2*cap(s.buf), 8, k), slabCap)), 0
	}
	out := s.buf[s.n : s.n : s.n+k]
	s.n += k
	return out
}

func (s *slab[T]) reset() {
	clear(s.buf[:s.n])
	s.n = 0
}

// Reset takes back everything the scratch has lent and lets go of every
// node, ID and image it referenced.
func (s *Scratch) Reset() {
	s.ids.reset()
	s.nodes.reset()
	s.ints.reset()
	s.items.reset()
	s.inputs.reset()
	s.rows.reset()
	s.cells.reset()
	clear(s.head)
}

// The slab accessors are nil-safe: a nil *Scratch has no slabs, and take
// then allocates.

func (s *Scratch) idSlab() *slab[dewey.ID] {
	if s == nil {
		return nil
	}
	return &s.ids
}

func (s *Scratch) nodeSlab() *slab[*xmltree.Node] {
	if s == nil {
		return nil
	}
	return &s.nodes
}

func (s *Scratch) intSlab() *slab[int] {
	if s == nil {
		return nil
	}
	return &s.ints
}

func (s *Scratch) itemSlab() *slab[Item] {
	if s == nil {
		return nil
	}
	return &s.items
}

func (s *Scratch) rowSlab() *slab[Row] {
	if s == nil {
		return nil
	}
	return &s.rows
}

func (s *Scratch) cellSlab() *slab[string] {
	if s == nil {
		return nil
	}
	return &s.cells
}

// Inputs returns n empty inputs, one per pattern node.
func (s *Scratch) Inputs(n int) Inputs {
	if s == nil {
		return make(Inputs, n)
	}
	return take(&s.inputs, n)[:n]
}

// intsOf returns n zeroed ints.
func (s *Scratch) intsOf(n int) []int { return take(s.intSlab(), n)[:n] }
