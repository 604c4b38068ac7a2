package core

import (
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// scratch is what the engine builds for one statement and discards after
// it: the arrays the algebra lends its joins, selections and projections
// (algebra.Scratch), the ∆ tables, the statement's PUL, its insertion
// points and the IDs the row scans look around, the cover of its deleted
// subtrees, a view's pruned terms, the rows a scan marks and the set of
// keys it matches, a view's R side with the items its reduced reads
// return and the ancestor keys they probe, and the predicate probes and
// flips (predflip.go). Nothing in it outlives the statement: a view's rows, a
// snowcap's stripes and the tree keep copies.
//
// The engine, a single writer, takes a scratch from scratchPool when a
// statement starts and puts it back, emptied, when it ends. An idle engine
// holds none, so a tenant's live heap does not grow by it, and every path
// that runs the engine — a server's writer, log replay, a follower, the
// tests — reuses them with no option. Each array is capped (slabCap in the
// algebra, deltaCap for a ∆ table, scratchCap here), so a bulk statement
// allocates beyond the caps afresh rather than keeping what it grew.
type scratch struct {
	alg       algebra.Scratch
	delta     update.Delta
	pul       update.PUL
	points    []*xmltree.Node // an insertion's targets
	touched   []dewey.ID      // the nodes PIMT/PDMT refresh around
	ids       []dewey.ID      // a deletion's roots, the cover's input
	cover     dewey.Cover     // a deletion's detached subtrees
	terms     []uint64
	rows      []algebra.Row
	keys      map[string]bool
	rel       Relations
	reads     []algebra.Item // what Relations.Around read, every term's
	ancestors []string       // the keys one upward read probes
	probes    []predProbe
	flips     []flip
}

// scratchCap is the most elements one of scratch's own arrays keeps, and
// the most entries its key set may have held, across a statement.
const scratchCap = 1 << 10

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// algebra returns s's algebra scratch, or nil (allocate) for a nil s.
func (s *scratch) algebra() *algebra.Scratch {
	if s == nil {
		return nil
	}
	return &s.alg
}

// reset empties s for the next statement, letting go of every node, ID and
// row it referenced.
func (s *scratch) reset() {
	s.alg.Reset()
	s.delta.Reset()
	if cap(s.pul.Inserts) > scratchCap || cap(s.pul.Deletes) > scratchCap {
		s.pul = update.PUL{}
	}
	s.pul.Reset()
	if cap(s.ids) > scratchCap { // the cover holds at most as many keys
		s.cover = dewey.Cover{}
	}
	s.cover.Reset(nil)
	s.points = resetSlice(s.points)
	s.touched = resetSlice(s.touched)
	s.ids = resetSlice(s.ids)
	s.terms = resetSlice(s.terms)
	s.rows = resetSlice(s.rows)
	if len(s.keys) > scratchCap {
		s.keys = nil
	}
	clear(s.keys)
	s.rel = Relations{}
	s.reads = resetSlice(s.reads)
	s.ancestors = resetSlice(s.ancestors)
	s.probes = resetSlice(s.probes)
	s.flips = resetSlice(s.flips)
}

// resetSlice empties a scratch slice, zeroing what it held, or drops it
// when it grew past scratchCap.
func resetSlice[T any](s []T) []T {
	if cap(s) > scratchCap {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// lend gives the engine a scratch for the statement about to run, unless it
// holds one already (a replace's second half, a batch's later units); it
// reports whether it lent one, for giveBack.
func (e *Engine) lend() bool {
	if e.sc != nil {
		return false
	}
	e.sc = scratchPool.Get().(*scratch)
	return true
}

// giveBack returns the scratch lend lent, emptied, to the pool.
func (e *Engine) giveBack(lent bool) {
	if !lent {
		return
	}
	e.sc.reset()
	scratchPool.Put(e.sc)
	e.sc = nil
}
