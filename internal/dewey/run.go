package dewey

import (
	"slices"
	"sort"
	"unsafe"
)

// Run is an ordered sequence kept where its readers read it: sorted by the
// comparator it was made with, no two elements equal under it, and cut into
// chunks of bounded size so that an edit moves — and, once the run has been
// handed to readers, copies — one chunk, not the sequence. It is the
// structure behind the two sequences the engine publishes to concurrent
// readers, a label's nodes in document order (xmltree) and a view's rows in
// the order of their bindings' IDs (store).
//
// Freeze hands the chunk directory out as an immutable Chunks in O(1); from
// then on the first edit copies the directory and every edit copies the
// chunk it lands in, once, so whatever a reader holds stays as it was. A run
// that was never frozen is edited where it lies.
//
// Invariants, held after every method: no chunk is empty or longer than
// chunkLen; any two neighbouring chunks together hold more than half a
// chunkLen, so there are at most 4·Len()/chunkLen+1 of them; elements
// ascend strictly within and across chunks. Input that arrives in order
// fills each chunk to the brim and never moves an element.
//
// A Run is not safe for concurrent use; a Chunks is, for readers. Copying a
// Run value shares its chunks: Freeze it first, then both copies may be
// edited independently.
type Run[T any] struct {
	cmp    func(a, b T) int
	dir    [][]T
	mine   []bool // mine[i]: chunk i was allocated since the last Freeze
	n      int
	frozen bool // dir itself is in readers' hands
}

// runChunkBytes is the size a chunk grows to before it splits: what one
// edit of a published run copies.
const runChunkBytes = 2048

// chunkLen returns the most elements of type T a chunk holds.
func chunkLen[T any]() int {
	var zero T
	return max(8, runChunkBytes/int(unsafe.Sizeof(zero)))
}

// Chunks is a run as its readers see it: the chunks in order, each in
// order. Read-only.
type Chunks[T any] [][]T

// Len returns the number of elements, in O(chunks).
func (cs Chunks[T]) Len() int {
	n := 0
	for _, c := range cs {
		n += len(c)
	}
	return n
}

// Each calls f for every element in order until f returns false.
func (cs Chunks[T]) Each(f func(T) bool) {
	for _, c := range cs {
		for i := range c {
			if !f(c[i]) {
				return
			}
		}
	}
}

// AppendTo appends every element, in order, to dst, which grows at most
// once.
func (cs Chunks[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, cs.Len())
	for _, c := range cs {
		dst = append(dst, c...)
	}
	return dst
}

// NewRun returns an empty run ordered by cmp.
func NewRun[T any](cmp func(a, b T) int) Run[T] { return Run[T]{cmp: cmp} }

// Len returns the number of elements.
func (r *Run[T]) Len() int { return r.n }

// Chunks returns the run as it lies, for reading until the next edit.
func (r *Run[T]) Chunks() Chunks[T] { return r.dir }

// Freeze returns the run as it stands, for good: later edits leave what it
// returned alone. moved reports whether the run was edited since the Freeze
// before; if not, this is the directory that one returned.
func (r *Run[T]) Freeze() (cs Chunks[T], moved bool) {
	moved, r.frozen = !r.frozen, true
	return r.dir[:len(r.dir):len(r.dir)], moved
}

// find returns the position (chunk, offset) of the first element not below
// t, and whether that element equals t. Past every element the chunk is
// len(r.dir).
func (r *Run[T]) find(t T) (ci, i int, found bool) {
	ci = sort.Search(len(r.dir), func(k int) bool {
		c := r.dir[k]
		return r.cmp(c[len(c)-1], t) >= 0
	})
	if ci == len(r.dir) {
		return ci, 0, false
	}
	i, found = slices.BinarySearchFunc(r.dir[ci], t, r.cmp)
	return ci, i, found
}

// Get returns the element equal to t.
func (r *Run[T]) Get(t T) (T, bool) {
	if ci, i, found := r.find(t); found {
		return r.dir[ci][i], true
	}
	var zero T
	return zero, false
}

// thaw makes the directory the writer's own before the first edit after a
// Freeze; no chunk is the writer's yet.
func (r *Run[T]) thaw() {
	if r.frozen {
		r.dir = append(make([][]T, 0, len(r.dir)+1), r.dir...)
		r.mine = make([]bool, len(r.dir), len(r.dir)+1)
		r.frozen = false
	}
}

// own returns chunk ci, the writer's to edit, with room for that many more
// elements. A chunk readers may hold is first replaced by a copy little
// larger than what it is about to hold — an epoch's edits are few; one of
// the writer's own that lacks the room, by one twice that size. len+room
// must not exceed chunkLen.
func (r *Run[T]) own(ci, room int) []T {
	c := r.dir[ci]
	n := len(c) + room
	switch {
	case !r.mine[ci] && room == 0:
		c = append(make([]T, 0, n), c...)
	case !r.mine[ci]:
		c = append(make([]T, 0, min(n+n/8, chunkLen[T]())), c...)
	case cap(c) < n:
		c = append(make([]T, 0, min(2*n, chunkLen[T]())), c...)
	}
	r.dir[ci], r.mine[ci] = c, true
	return c
}

// Put inserts t, or overwrites the element equal to it, and reports whether
// t was new.
func (r *Run[T]) Put(t T) bool {
	ci, i := len(r.dir), 0
	// Input in order is the common case (a load, a document-order batch):
	// one comparison, against the last element.
	if last := len(r.dir) - 1; last >= 0 && r.cmp(r.dir[last][len(r.dir[last])-1], t) >= 0 {
		var found bool
		if ci, i, found = r.find(t); found {
			r.thaw()
			r.own(ci, 0)[i] = t
			return false
		}
	}
	r.thaw()
	r.n++
	full := chunkLen[T]()
	if ci == len(r.dir) {
		// Past every element: into the last chunk, or a new one after it.
		if ci == 0 || len(r.dir[ci-1]) == full {
			c := []T{t}
			if ci > 0 {
				c = append(make([]T, 0, full), t) // the run is long; so will this chunk be
			}
			r.dir, r.mine = append(r.dir, c), append(r.mine, true)
			return true
		}
		ci--
		i = len(r.dir[ci])
	}
	if len(r.dir[ci]) == full {
		c := r.own(ci, 0)
		right := append(make([]T, 0, full), c[full/2:]...)
		clear(c[full/2:])
		r.dir[ci] = c[:full/2]
		r.dir, r.mine = slices.Insert(r.dir, ci+1, right), slices.Insert(r.mine, ci+1, true)
		if i > full/2 {
			ci, i = ci+1, i-full/2
		}
	}
	r.dir[ci] = slices.Insert(r.own(ci, 1), i, t)
	return true
}

// Delete removes the element equal to t and reports whether there was one.
func (r *Run[T]) Delete(t T) bool {
	ci, i, found := r.find(t)
	if !found {
		return false
	}
	r.thaw()
	r.cut(ci, i, i+1)
	r.settle(ci, ci)
	return true
}

// cut removes elements [i, j) of chunk ci — the chunk itself, without
// copying it, when that is all of them — and reports whether the chunk is
// still there.
func (r *Run[T]) cut(ci, i, j int) bool {
	r.n -= j - i
	if i == 0 && j == len(r.dir[ci]) {
		r.dir, r.mine = slices.Delete(r.dir, ci, ci+1), slices.Delete(r.mine, ci, ci+1)
		return false
	}
	r.dir[ci] = slices.Delete(r.own(ci, 0), i, j)
	return true
}

// Cut removes the block of consecutive elements that starts at the first
// element not below from and satisfies under, returning its length. under
// must hold for a prefix of the elements from there on and for none after —
// as "has this key prefix" does in a run ordered by key. Chunks wholly
// inside the block are dropped without being copied.
func (r *Run[T]) Cut(from T, under func(T) bool) int {
	first, i, _ := r.find(from)
	ci, before := first, r.n
	for ci < len(r.dir) {
		c := r.dir[ci]
		j := i + sort.Search(len(c)-i, func(k int) bool { return !under(c[i+k]) })
		if j == i {
			break
		}
		r.thaw()
		if r.cut(ci, i, j) {
			ci++
		}
		if j < len(c) {
			break
		}
		i = 0
	}
	if r.n < before {
		r.settle(first, ci)
	}
	return before - r.n
}

// settle restores the size invariant after chunks lo..hi shrank or became
// neighbours: wherever one of them and a neighbour fit in half a chunk
// together, the right one is appended to the left.
func (r *Run[T]) settle(lo, hi int) {
	half := chunkLen[T]() / 2
	for k := max(lo-1, 0); k <= hi && k+1 < len(r.dir); {
		if len(r.dir[k])+len(r.dir[k+1]) <= half {
			r.join(k)
			hi--
		} else {
			k++
		}
	}
}

// join appends chunk ci+1 to chunk ci.
func (r *Run[T]) join(ci int) {
	right := r.dir[ci+1]
	r.dir[ci] = append(r.own(ci, len(right)), right...)
	r.dir, r.mine = slices.Delete(r.dir, ci+1, ci+2), slices.Delete(r.mine, ci+1, ci+2)
}
