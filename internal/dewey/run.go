package dewey

import (
	"slices"
	"sort"
	"unsafe"
)

// Run is an ordered sequence kept where its readers read it: sorted by the
// comparator it was made with, no two elements equal under it, and held in a
// copy-on-write B+-tree so that an edit moves — and, once the run has been
// handed to readers, copies — one leaf and the interior nodes above it, not
// the sequence. It is the structure behind the sequences the engine
// publishes to concurrent readers: a label's nodes in document order and the
// label index's lists in label order (xmltree), a view's rows in the order
// of their bindings' IDs (store).
//
// Leaves hold at most leafBytes of elements (at least 8 of them), interior
// nodes at most fanout children, searched by each child's last element;
// every node knows how many elements lie under it. Each node is stamped
// with the freeze generation that made it the writer's: Freeze hands the
// root out as an immutable Chunks in O(1) and starts a new generation, and
// from then on the first edit of a node copies it, once, with the interior
// nodes on its path — O(log n) bytes, so whatever a reader holds stays as it
// was. A run that was never frozen is edited where it lies.
//
// Invariants, held after every method: every leaf lies at the same depth;
// no node but an empty run's root leaf is empty; a leaf holds at most
// leafLen elements and an interior node at most fanout children, the root
// at least two; any two neighbouring siblings together hold more than half
// of that, so a level of m nodes has at most 4m/fanout+1 parents; a node's
// count is the number of elements under it; elements ascend strictly
// across the leaves in order. Input that arrives in order fills each leaf
// to the brim and never moves an element.
//
// A Run is not safe for concurrent use; a Chunks is, for readers. Copying a
// Run value shares its nodes: Freeze the copy before editing it, and leave
// the original alone.
type Run[T any] struct {
	cmp  func(a, b T) int
	root *node[T]
	gen  uint64 // nodes stamped gen are the writer's to edit in place
}

// node is a leaf (kids == nil), which holds elements, or an interior node,
// which holds children, in order.
type node[T any] struct {
	gen   uint64 // the freeze generation that made the node the writer's
	n     int    // elements in the subtree
	elems []T
	kids  []*node[T]
}

const (
	// leafBytes is the most a leaf's elements take: what one edit of a
	// published run copies, beside its path.
	leafBytes = 512
	// fanout is the most children an interior node has.
	fanout = 16
)

// leafLen returns the most elements of type T a leaf holds.
func leafLen[T any]() int {
	var zero T
	return max(8, leafBytes/int(unsafe.Sizeof(zero)))
}

// Chunks is a run as its readers see it: the frozen root of its tree, or
// nil for a run that never held an element. Read-only, and safe for
// concurrent readers; the nil Chunks is empty.
type Chunks[T any] node[T]

// ChunksOf returns the elements of s, which must not be written again, as
// a Chunks whose leaves are consecutive pieces of s.
func ChunksOf[T any](s []T) *Chunks[T] {
	var level []*node[T]
	for full := leafLen[T](); len(s) > 0; {
		k := min(full, len(s))
		level = append(level, &node[T]{n: k, elems: s[:k:k]})
		s = s[k:]
	}
	for len(level) > 1 {
		var up []*node[T]
		for len(level) > 0 {
			k := min(fanout, len(level))
			nd := &node[T]{kids: level[:k:k]}
			nd.count()
			up = append(up, nd)
			level = level[k:]
		}
		level = up
	}
	if len(level) == 0 {
		return nil
	}
	return (*Chunks[T])(level[0])
}

// Len returns the number of elements, in O(1).
func (cs *Chunks[T]) Len() int {
	if cs == nil {
		return 0
	}
	return cs.n
}

// EachLeaf calls f with every leaf's elements in order until f returns
// false. The slices are the run's own.
func (cs *Chunks[T]) EachLeaf(f func(leaf []T) bool) {
	if cs != nil {
		(*node[T])(cs).eachLeaf(f)
	}
}

func (nd *node[T]) eachLeaf(f func([]T) bool) bool {
	if nd.kids == nil {
		return f(nd.elems)
	}
	for _, c := range nd.kids {
		if !c.eachLeaf(f) {
			return false
		}
	}
	return true
}

// Each calls f for every element in order until f returns false.
func (cs *Chunks[T]) Each(f func(T) bool) {
	cs.EachLeaf(func(leaf []T) bool {
		for i := range leaf {
			if !f(leaf[i]) {
				return false
			}
		}
		return true
	})
}

// AppendTo appends every element, in order, to dst, which grows at most
// once.
func (cs *Chunks[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, cs.Len())
	cs.EachLeaf(func(leaf []T) bool {
		dst = append(dst, leaf...)
		return true
	})
	return dst
}

// Find returns the element e with at(e) == 0, where at orders the elements
// as the run's comparator does against some probe: negative below it,
// positive above.
func (cs *Chunks[T]) Find(at func(T) int) (e T, found bool) {
	cs.From(at, func(x T) bool {
		if at(x) == 0 {
			e, found = x, true
		}
		return false
	})
	return e, found
}

// From calls f with every element from the first e with at(e) >= 0 on, in
// order, until f returns false; at orders the elements as Find's does. It
// descends to that element in O(log n) and visits no element before it, so
// a key-ordered run's elements under a key prefix — a subtree's nodes in
// document order — are one From that stops at the first key past the
// prefix.
func (cs *Chunks[T]) From(at func(T) int, f func(T) bool) {
	if nd := (*node[T])(cs); nd != nil && nd.n > 0 {
		nd.from(at, f)
	}
}

func (nd *node[T]) from(at func(T) int, f func(T) bool) bool {
	if nd.kids == nil {
		i := sort.Search(len(nd.elems), func(i int) bool { return at(nd.elems[i]) >= 0 })
		for _, e := range nd.elems[i:] {
			if !f(e) {
				return false
			}
		}
		return true
	}
	k := sort.Search(len(nd.kids), func(k int) bool { return at(nd.kids[k].last()) >= 0 })
	if k == len(nd.kids) {
		return true
	}
	if !nd.kids[k].from(at, f) {
		return false
	}
	for _, c := range nd.kids[k+1:] {
		if !c.eachLeaf(func(leaf []T) bool {
			for _, e := range leaf {
				if !f(e) {
					return false
				}
			}
			return true
		}) {
			return false
		}
	}
	return true
}

// last returns the subtree's last element; the subtree must not be empty.
func (nd *node[T]) last() T {
	for nd.kids != nil {
		nd = nd.kids[len(nd.kids)-1]
	}
	return nd.elems[len(nd.elems)-1]
}

// size is how full the node is: elements in a leaf, children otherwise.
func (nd *node[T]) size() int {
	if nd.kids == nil {
		return len(nd.elems)
	}
	return len(nd.kids)
}

// count sets the node's element count from what it holds.
func (nd *node[T]) count() {
	if nd.kids == nil {
		nd.n = len(nd.elems)
		return
	}
	nd.n = 0
	for _, c := range nd.kids {
		nd.n += c.n
	}
}

// NewRun returns an empty run ordered by cmp.
func NewRun[T any](cmp func(a, b T) int) Run[T] { return Run[T]{cmp: cmp} }

// Len returns the number of elements.
func (r *Run[T]) Len() int { return r.Chunks().Len() }

// Chunks returns the run as it lies, for reading until the next edit.
func (r *Run[T]) Chunks() *Chunks[T] { return (*Chunks[T])(r.root) }

// Freeze returns the run as it stands, for good: later edits leave what it
// returned alone. moved reports whether the run was edited since the Freeze
// before; if not, this is the root that one returned. An edit always leaves
// a root of the writer's generation, so that is what moved reads.
func (r *Run[T]) Freeze() (cs *Chunks[T], moved bool) {
	if moved = r.root != nil && r.root.gen == r.gen; moved {
		r.gen++
	}
	return r.Chunks(), moved
}

// Get returns the element equal to t.
func (r *Run[T]) Get(t T) (T, bool) {
	return r.Chunks().Find(func(e T) int { return r.cmp(e, t) })
}

// child returns the index of the child of nd that t falls in: the first
// whose last element is not below t, or the last.
func (r *Run[T]) child(nd *node[T], t T) int {
	return sort.Search(len(nd.kids)-1, func(k int) bool { return r.cmp(nd.kids[k].last(), t) >= 0 })
}

// grown is the capacity a slice that is about to hold n of at most most
// entries is given: a little more than n, since an epoch's edits are few.
func grown(n, most int) int { return min(n+n/8, most) }

// roomy returns s with room for that many more entries, itself when the
// writer owns it and it has the room. A slice readers may hold is copied,
// exactly when nothing is to be added and a little larger otherwise; one of
// the writer's own that lacks the room, into twice the size.
func roomy[E any](s []E, room int, owned bool, most int) []E {
	n := len(s) + room
	switch {
	case !owned && room == 0:
		return append(make([]E, 0, n), s...)
	case !owned:
		return append(make([]E, 0, grown(n, most)), s...)
	case cap(s) < n:
		return append(make([]E, 0, min(2*n, most)), s...)
	}
	return s
}

// own returns nd for the writer to edit, with room for that many more
// elements (a leaf) or children: nd itself if it is the writer's, a copy
// stamped with the writer's generation if readers may hold it.
func (r *Run[T]) own(nd *node[T], room int) *node[T] {
	owned := nd.gen == r.gen
	if !owned {
		c := *nd
		c.gen = r.gen
		nd = &c
	}
	if nd.kids == nil {
		nd.elems = roomy(nd.elems, room, owned, leafLen[T]())
	} else {
		nd.kids = roomy(nd.kids, room, owned, fanout)
	}
	return nd
}

// splitInsert returns full with e inserted at i, cut in two halves that
// are slices of their own — but for the left one, which reuses full when
// the writer owns it.
func splitInsert[E any](full []E, i int, e E, owned bool, most int) (left, right []E) {
	h := (len(full) + 1) / 2 // the left half's length
	at := h                  // where full is cut
	if i < h {
		at--
	}
	right = append(make([]E, 0, grown(len(full)+1-h, most)), full[at:]...)
	if owned {
		left = full[:at]
		clear(full[at:])
	} else {
		left = append(make([]E, 0, grown(h, most)), full[:at]...)
	}
	if i < h {
		left = slices.Insert(left, i, e)
	} else {
		right = slices.Insert(right, i-h, e)
	}
	return left, right
}

// Put inserts t, or overwrites the element equal to it, and reports whether
// t was new.
func (r *Run[T]) Put(t T) bool {
	// Input in order is the common case (a load, a document-order batch):
	// one comparison, against the last element.
	if r.root == nil || r.root.n == 0 || r.cmp(r.root.last(), t) < 0 {
		if r.root == nil {
			r.root = &node[T]{gen: r.gen}
		}
		root, right := r.push(r.root, t)
		r.root = r.grow(root, right)
		return true
	}
	root, right, fresh := r.put(r.root, t)
	r.root = r.grow(root, right)
	return fresh
}

// grow returns the root over root and, when the old root split, its new
// right sibling.
func (r *Run[T]) grow(root, right *node[T]) *node[T] {
	if right == nil {
		return root
	}
	nd := &node[T]{gen: r.gen, kids: []*node[T]{root, right}}
	nd.count()
	return nd
}

// push appends t, which follows every element, to the subtree at nd, and
// returns the subtree as the writer now holds it and the new right sibling
// that took t if nd was full — nd itself is then untouched. A full leaf is
// followed by a new one allocated at its final size: the run is long, so
// the next leaf will be full too.
func (r *Run[T]) push(nd *node[T], t T) (out, right *node[T]) {
	if nd.kids == nil {
		if len(nd.elems) == leafLen[T]() {
			return nd, &node[T]{gen: r.gen, n: 1, elems: append(make([]T, 0, leafLen[T]()), t)}
		}
		nd = r.own(nd, 1)
		nd.elems = append(nd.elems, t)
	} else {
		k := len(nd.kids) - 1
		c, split := r.push(nd.kids[k], t)
		switch {
		case split != nil && len(nd.kids) == fanout:
			return nd, &node[T]{gen: r.gen, n: 1, kids: append(make([]*node[T], 0, fanout), split)}
		case split != nil:
			nd = r.own(nd, 1)
			nd.kids = append(nd.kids, split)
		default:
			nd = r.own(nd, 0)
			nd.kids[k] = c
		}
	}
	nd.n++
	return nd, nil
}

// put places t in the subtree at nd. It returns the subtree as the writer
// now holds it, its new right sibling if it split, and whether t was new.
func (r *Run[T]) put(nd *node[T], t T) (out, right *node[T], fresh bool) {
	if nd.kids == nil {
		i, found := slices.BinarySearchFunc(nd.elems, t, r.cmp)
		switch {
		case found:
			nd = r.own(nd, 0)
			nd.elems[i] = t
			return nd, nil, false
		case len(nd.elems) < leafLen[T]():
			nd = r.own(nd, 1)
			nd.elems = slices.Insert(nd.elems, i, t)
			nd.n++
			return nd, nil, true
		}
		owned := nd.gen == r.gen
		left, rest := splitInsert(nd.elems, i, t, owned, leafLen[T]())
		out, right = r.halves(nd, owned, left, nil, &node[T]{gen: r.gen, elems: rest})
		return out, right, true
	}
	k := r.child(nd, t)
	c, split, fresh := r.put(nd.kids[k], t)
	switch {
	case split == nil:
		nd = r.own(nd, 0)
		nd.kids[k] = c
	case len(nd.kids) < fanout:
		nd = r.own(nd, 1)
		nd.kids[k] = c
		nd.kids = slices.Insert(nd.kids, k+1, split)
	default:
		owned := nd.gen == r.gen
		left, rest := splitInsert(nd.kids, k+1, split, owned, fanout)
		if k < len(left) {
			left[k] = c
		} else {
			rest[k-len(left)] = c
		}
		out, right = r.halves(nd, owned, nil, left, &node[T]{gen: r.gen, kids: rest})
		return out, right, fresh
	}
	nd.count()
	return nd, nil, fresh
}

// halves finishes a split of nd: the left half holds elems or kids, in nd
// itself if the writer owns it, right holds the rest.
func (r *Run[T]) halves(nd *node[T], owned bool, elems []T, kids []*node[T], right *node[T]) (out, rest *node[T]) {
	if !owned {
		nd = &node[T]{gen: r.gen}
	}
	nd.elems, nd.kids = elems, kids
	nd.count()
	right.count()
	return nd, right
}

// Delete removes the element equal to t and reports whether there was one.
func (r *Run[T]) Delete(t T) bool {
	if r.root == nil || r.root.n == 0 {
		return false
	}
	root, found := r.del(r.root, t)
	if found {
		r.setRoot(root)
	}
	return found
}

// del removes t from the subtree at nd, which is left as it was if t is
// not there. It returns the subtree as the writer now holds it, nil if
// nothing is left of it.
func (r *Run[T]) del(nd *node[T], t T) (*node[T], bool) {
	if nd.kids == nil {
		i, found := slices.BinarySearchFunc(nd.elems, t, r.cmp)
		switch {
		case !found:
			return nd, false
		case len(nd.elems) == 1:
			return nil, true
		}
		nd = r.own(nd, 0)
		nd.elems = slices.Delete(nd.elems, i, i+1)
		nd.n--
		return nd, true
	}
	k := r.child(nd, t)
	c, found := r.del(nd.kids[k], t)
	if !found {
		return nd, false
	}
	return r.splice(nd, k, k+1, c, nil), true
}

// Cut removes the block of consecutive elements that starts at the first
// element not below from and satisfies under, returning its length. under
// must hold for a prefix of the elements from there on and for none after —
// as "has this key prefix" does in a run ordered by key. Subtrees wholly
// inside the block are dropped without being copied or visited.
func (r *Run[T]) Cut(from T, under func(T) bool) int {
	if r.root == nil || r.root.n == 0 {
		return 0
	}
	root, cut, _ := r.cut(r.root, from, under)
	if cut > 0 {
		r.setRoot(root)
	}
	return cut
}

// cut removes from the subtree at nd the part of Cut's block that lies in
// it. It returns the subtree as the writer now holds it (nil if nothing is
// left of it, nd itself if nothing went), how many elements went, and
// whether the block may go on past the subtree's end.
func (r *Run[T]) cut(nd *node[T], from T, under func(T) bool) (out *node[T], cut int, more bool) {
	if nd.kids == nil {
		c := nd.elems
		i, _ := slices.BinarySearchFunc(c, from, r.cmp)
		j := i + sort.Search(len(c)-i, func(k int) bool { return !under(c[i+k]) })
		switch {
		case j == i:
			return nd, 0, j == len(c)
		case i == 0 && j == len(c):
			return nil, j, true
		}
		nd = r.own(nd, 0)
		nd.elems = slices.Delete(nd.elems, i, j)
		nd.n -= j - i
		return nd, j - i, j == len(c)
	}
	k := r.child(nd, from)
	first, cut, more := r.cut(nd.kids[k], from, under)
	hi := k + 1
	// Past the first child the block starts before every element: a child
	// whose last element is in it lies in it whole.
	for ; more && hi < len(nd.kids) && under(nd.kids[hi].last()); hi++ {
		cut += nd.kids[hi].n
	}
	var end *node[T] // the child the block ends in
	if more && hi < len(nd.kids) {
		var n int
		end, n, more = r.cut(nd.kids[hi], from, under)
		cut += n
		hi++
	}
	if cut == 0 {
		return nd, 0, more
	}
	return r.splice(nd, k, hi, first, end), cut, more
}

// splice replaces the children [lo, hi) of nd with a and b, whichever are
// not nil, and joins what the seams leave too small. It returns nd as the
// writer now holds it, nil if it has no children left.
func (r *Run[T]) splice(nd *node[T], lo, hi int, a, b *node[T]) *node[T] {
	nd = r.own(nd, 0)
	j := lo
	for _, c := range [2]*node[T]{a, b} {
		if c != nil {
			nd.kids[j] = c
			j++
		}
	}
	nd.kids = slices.Delete(nd.kids, j, hi)
	if len(nd.kids) == 0 {
		return nil
	}
	r.settle(nd, lo, j-1)
	nd.count()
	return nd
}

// settle restores the fill bound among nd's children after children lo..hi
// shrank or became neighbours: wherever one of them and a neighbour fit in
// half a node together, the right one is appended to the left. nd is the
// writer's.
func (r *Run[T]) settle(nd *node[T], lo, hi int) {
	half := fanout / 2
	if nd.kids[0].kids == nil {
		half = leafLen[T]() / 2
	}
	for k := max(lo-1, 0); k <= hi && k+1 < len(nd.kids); {
		if nd.kids[k].size()+nd.kids[k+1].size() <= half {
			r.join(nd, k)
			hi--
		} else {
			k++
		}
	}
}

// join appends child k+1 of nd to child k. Joined interior nodes make the
// two nodes at their seam siblings, which are settled in turn.
func (r *Run[T]) join(nd *node[T], k int) {
	a, b := nd.kids[k], nd.kids[k+1]
	if b.kids == nil {
		a = r.own(a, len(b.elems))
		a.elems = append(a.elems, b.elems...)
	} else {
		seam := len(a.kids)
		a = r.own(a, len(b.kids))
		a.kids = append(a.kids, b.kids...)
		r.settle(a, seam, seam)
	}
	a.count()
	nd.kids[k] = a
	nd.kids = slices.Delete(nd.kids, k+1, k+2)
}

// setRoot installs the root an edit left: an interior root with one child
// gives way to it (a copy, so that the root is the writer's and Freeze sees
// the edit), and an emptied run keeps an empty leaf of the writer's.
func (r *Run[T]) setRoot(root *node[T]) {
	for root != nil && len(root.kids) == 1 {
		root = r.own(root.kids[0], 0)
	}
	if root == nil {
		root = &node[T]{gen: r.gen}
	}
	r.root = root
}
