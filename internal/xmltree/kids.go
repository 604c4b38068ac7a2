package xmltree

import (
	"slices"
	"sort"
)

// Child lists. A node's children are a persistent sequence in key order,
// shaped as a B+-tree whose interior entries are nodes of the unexported
// kind branch: a list of at most fanout children is the plain slice of them
// (the tree of height 0), a wider one a slice of branches, each holding at
// most fanout entries — children at the bottom level, branches above it —
// with every child at the same depth. A holder — the parent, or a branch —
// records in height how many branch levels lie below it, so that telling a
// slice of branches from one of children reads no entry; a holder of height
// 0, whose entries are children, is a leaf. A branch carries gen like any
// node, so an edit of a published list copies the parent's own slice, the
// branches on its path and one leaf of at most fanout pointers, never the
// list. A branch is searched by the key of its last child, read down its
// right edge as dewey.Run does.
//
// A holder's slice is read with kids and replaced with setKids (node.go):
// an edit in place writes through kids, an edit that moves the slice sets
// it.
//
// Branches never leave this package: the cursor, Walk, Size, CountNodes, the
// label index, the mutators' replaced lists and CopiedNodes see only the
// children.
//
// Invariants, held after every mutator (checkKids, in the tests, asserts
// them): every child lies height levels below its parent; no branch is
// empty; a slice holds at most fanout entries, and a parent's slice of
// branches at least two; any two neighbouring branches hold more than
// fanout/2 entries together; keys ascend strictly across the children in
// order. Children appended in order fill each leaf to the brim.

// branch is the kind of a child list's interior nodes, which are not part
// of the document: Kind, height, gen and kids are all a branch uses of a
// Node.
const branch Kind = Text + 1

// fanout is the most entries a slice of a child list holds: 64 pointers,
// 512 B, dewey.Run's leaf bound — what one edit of a published list copies
// per level.
const fanout = 64

// lastKey returns the key of the last child under a list entry.
func lastKey(e *Node) string {
	for e.Kind == branch {
		kids := e.kids()
		e = kids[len(kids)-1]
	}
	return e.ID().Key()
}

// entryFor returns the index of the first entry of a slice of branches
// whose last key is not below key — above it, if above is set — or
// len(kids).
func entryFor(kids []*Node, key string, above bool) int {
	return sort.Search(len(kids), func(e int) bool {
		last := lastKey(kids[e])
		return last > key || last == key && !above
	})
}

// keyAtLeast returns the position of the first node of list whose key is
// not below key.
func keyAtLeast(list []*Node, key string) int {
	return sort.Search(len(list), func(i int) bool { return list[i].ID().Key() >= key })
}

// leafFor returns the leaf of nd's list that holds the first child whose
// key is not below key — above it, if above is set — or nil when no child's
// is.
func leafFor(nd *Node, key string, above bool) *Node {
	for nd.height > 0 {
		kids := nd.kids()
		e := entryFor(kids, key, above)
		if e == len(kids) {
			return nil
		}
		nd = kids[e]
	}
	return nd
}

// leafBefore returns the leaf of nd's list before the one whose first child
// has the key first, nil for the first leaf: the leaf before it in the
// entry that holds it, or else the last leaf of the entry before.
func leafBefore(nd *Node, first string) *Node {
	if nd.height == 0 {
		return nil
	}
	kids := nd.kids()
	e := entryFor(kids, first, false)
	if leaf := leafBefore(kids[e], first); leaf != nil || e == 0 {
		return leaf
	}
	for nd = kids[e-1]; nd.height > 0; {
		kids = nd.kids()
		nd = kids[len(kids)-1]
	}
	return nd
}

// lastKid returns n's last child, or nil when it has none.
func lastKid(n *Node) *Node {
	kids := n.kids()
	for n.height > 0 {
		n = kids[len(kids)-1]
		kids = n.kids()
	}
	if len(kids) == 0 {
		return nil
	}
	return kids[len(kids)-1]
}

// NumChildren returns the number of n's children: O(1) for a list of at
// most 64, one addition per 64 children beyond.
func (n *Node) NumChildren() int {
	if n.height == 0 {
		return len(n.kids())
	}
	total := 0
	for _, b := range n.kids() {
		total += b.NumChildren()
	}
	return total
}

// Kids is a cursor over a node's children in document order, in the idiom
// of dewey.Cursor: Next moves to the next child and reports whether there
// was one, Prev to the one before, and Node is the child the cursor is at.
// It allocates nothing, and within a leaf a step is an increment; from one
// leaf to the next it is a descent by key. It reads the list as it stood
// when the cursor was made: an epoch's list for good, the writer's until
// its next mutation — rewriting a child's ID is one (see eachKid).
type Kids struct {
	n  *Node // the parent
	at *Node // the leaf the cursor is in: n itself, a branch, or childless
	i  int   // the cursor's place in the leaf: -1 before it, its length past it
}

// childless is the leaf of a Text or Attribute node's cursor, which has no
// child list to read.
var childless = &Node{}

// Kids returns a cursor before n's first child.
func (n *Node) Kids() Kids {
	at := n
	if n.holdsValue() {
		at = childless
	}
	for at.height > 0 {
		at = at.kid(0)
	}
	return Kids{n: n, at: at, i: -1}
}

// KidsAt returns a cursor at n's child with the given key — Next then moves
// to its following siblings, Prev to its preceding ones — and whether n has
// that child. A binary search per level, no allocation.
func (n *Node) KidsAt(key string) (Kids, bool) {
	if n.holdsValue() {
		return Kids{n: n, at: childless, i: -1}, false
	}
	at := leafFor(n, key, false)
	if at == nil {
		return Kids{}, false
	}
	leaf := at.kids()
	i := keyAtLeast(leaf, key)
	return Kids{n: n, at: at, i: i}, i < len(leaf) && leaf[i].ID().Key() == key
}

// Node returns the child the cursor is at.
func (k *Kids) Node() *Node { return k.at.kid(k.i) }

// Next moves to the next child and reports whether there was one.
func (k *Kids) Next() bool {
	if k.i++; k.i < k.at.numKids() {
		return true
	}
	return k.nextLeaf()
}

// Prev moves to the previous child and reports whether there was one.
func (k *Kids) Prev() bool {
	if k.i--; k.i >= 0 {
		return true
	}
	return k.prevLeaf()
}

// nextLeaf moves the cursor from past its leaf's end onto the first child
// of the next leaf, and reports whether there was one; at the end of the
// list the cursor stays past the end. It is kept out of Next so that Next
// inlines, and a step within a leaf is an increment and a compare.
func (k *Kids) nextLeaf() bool {
	k.i = k.at.numKids()
	if k.n.height == 0 || k.i == 0 {
		return false
	}
	next := leafFor(k.n, lastKey(k.at), true)
	if next == nil {
		return false
	}
	k.at, k.i = next, 0
	return true
}

// prevLeaf moves the cursor from before its leaf's start onto the last
// child of the leaf before, and reports whether there was one; at the start
// of the list the cursor stays before it.
func (k *Kids) prevLeaf() bool {
	k.i = -1
	if k.n.height == 0 || k.at.numKids() == 0 {
		return false
	}
	prev := leafBefore(k.n, k.at.kid(0).ID().Key())
	if prev == nil {
		return false
	}
	k.at, k.i = prev, prev.numKids()-1
	return true
}

// eachKid calls f on each of n's children in order, stopping at the first
// error. It follows the list's shape and reads no key, so f may rewrite the
// IDs of the children it is given.
func eachKid(n *Node, f func(*Node) error) error {
	for _, e := range n.kids() {
		var err error
		if n.height > 0 {
			err = eachKid(e, f)
		} else {
			err = f(e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// AppendChild appends c as n's last child. It is for trees not yet in a
// document — a parsed forest, a planner's copy of one: a document's nodes
// change only through its mutators.
func (n *Node) AppendChild(c *Node) { appendKid(n, c, n.gen) }

// hold returns a holder for the writer of publication gen to edit:
// nd itself if it is the writer's, else a copy with its own slice, room
// for one more entry.
func hold(nd *Node, gen uint32) *Node {
	if nd.gen == gen {
		return nd
	}
	c := *nd
	c.gen = gen
	c.setKids(copyKids(nd.kids()))
	return &c
}

// copyKids returns a copy of a list slice with room for one more entry.
func copyKids(s []*Node) []*Node {
	return append(make([]*Node, 0, min(len(s)+1, fanout)), s...)
}

// addKids appends more to the slice of nd, a holder the writer owns,
// growing it to at most fanout entries.
func addKids(nd *Node, more ...*Node) {
	s := nd.kids()
	if n := len(s) + len(more); n > cap(s) {
		s = append(make([]*Node, 0, min(max(2*len(s), n), fanout)), s...)
	}
	nd.setKids(append(s, more...))
}

// newBranch returns a branch of the given height holding e alone, with
// room for a full slice: the list is being appended to, so it will fill.
func newBranch(e *Node, height uint8, gen uint32) *Node {
	b := &Node{Kind: branch, height: height, gen: gen}
	b.setKids(append(make([]*Node, 0, fanout), e))
	return b
}

// appendKid appends c, which follows every child of n, as n's last child.
// n is the writer's (publication gen); so become the branches on the list's
// right edge that the append edits. When n's own slice is full, it moves a
// level down, into a branch beside the one that took c.
func appendKid(n, c *Node, gen uint32) {
	if _, right := pushKid(n, c, gen); right != nil {
		left := &Node{Kind: branch, height: n.height, gen: gen}
		left.setKids(n.kids())
		n.setKids([]*Node{left, right})
		n.height++
	}
}

// pushKid appends c to the list under nd. It returns the holder as the
// writer now holds it and, if nd was full down its right edge, the new
// right sibling that took c — nd itself is then untouched.
func pushKid(nd, c *Node, gen uint32) (out, right *Node) {
	kids := nd.kids()
	if nd.height == 0 {
		if len(kids) == fanout {
			return nd, newBranch(c, 0, gen)
		}
		nd = hold(nd, gen)
		addKids(nd, c)
		return nd, nil
	}
	k := len(kids) - 1
	sub, split := pushKid(kids[k], c, gen)
	switch {
	case split != nil && len(kids) == fanout:
		return nd, newBranch(split, nd.height, gen)
	case split != nil:
		nd = hold(nd, gen)
		addKids(nd, split)
	default:
		nd = hold(nd, gen)
		nd.kids()[k] = sub
	}
	return nd, nil
}

// kidSlot returns the slot of n's child with the given key, in a leaf the
// writer of publication gen owns: n is the writer's, and each branch on
// the way down is made so. Nil when n has no such child.
func kidSlot(n *Node, key string, gen uint32) **Node {
	kids := n.kids()
	for nd := n; nd.height > 0; {
		e := entryFor(kids, key, false)
		if e == len(kids) {
			return nil
		}
		nd = hold(kids[e], gen)
		kids[e] = nd
		kids = nd.kids()
	}
	if i := keyAtLeast(kids, key); i < len(kids) && kids[i].ID().Key() == key {
		return &kids[i]
	}
	return nil
}

// cutKid removes n's child with the given key and returns it, or nil if n
// has none. n is the writer's (publication gen); so become the branches on
// the path. A parent left with one branch takes its entries back.
func cutKid(n *Node, key string, gen uint32) *Node {
	_, gone := delKid(n, key, gen)
	for n.height > 0 && len(n.kids()) == 1 {
		b := n.kids()[0]
		n.height = b.height
		if b.gen == gen {
			n.setKids(b.kids())
		} else { // an epoch's branch: its slice is the epoch's too
			n.setKids(copyKids(b.kids()))
		}
	}
	return gone
}

// delKid removes the child with the given key from the list under nd, which
// is left as it was if the child is not there. It returns the holder as the
// writer now holds it — nil for a branch with nothing left — and the child.
func delKid(nd *Node, key string, gen uint32) (out, gone *Node) {
	kids := nd.kids()
	if nd.height == 0 {
		i := keyAtLeast(kids, key)
		if i == len(kids) || kids[i].ID().Key() != key {
			return nd, nil
		}
		gone = kids[i]
		if len(kids) == 1 && nd.Kind == branch {
			return nil, gone
		}
		nd = hold(nd, gen)
		nd.setKids(slices.Delete(nd.kids(), i, i+1))
		return nd, gone
	}
	e := entryFor(kids, key, false)
	if e == len(kids) {
		return nd, nil
	}
	sub, gone := delKid(kids[e], key, gen)
	if gone == nil {
		return nd, nil
	}
	nd = hold(nd, gen)
	if sub != nil {
		nd.kids()[e] = sub
		settle(nd, e, e, gen)
	} else {
		nd.setKids(slices.Delete(nd.kids(), e, e+1))
		if len(nd.kids()) == 0 {
			return nil, gone
		}
		settle(nd, e, e-1, gen)
	}
	return nd, gone
}

// settle restores the fill bound among nd's branches after entries lo..hi
// shrank or became neighbours: wherever one of them and a neighbour fit in
// half a slice together, the right one is appended to the left. nd is the
// writer's.
func settle(nd *Node, lo, hi int, gen uint32) {
	for e := max(lo-1, 0); e <= hi && e+1 < len(nd.kids()); {
		if kids := nd.kids(); len(kids[e].kids())+len(kids[e+1].kids()) <= fanout/2 {
			join(nd, e, gen)
			hi--
		} else {
			e++
		}
	}
}

// join appends branch e+1 of nd to branch e. Joined branches of branches
// make the two entries at their seam neighbours, which are settled in turn.
func join(nd *Node, e int, gen uint32) {
	kids := nd.kids()
	a, b := hold(kids[e], gen), kids[e+1]
	seam := len(a.kids())
	addKids(a, b.kids()...)
	if a.height > 0 {
		settle(a, seam, seam, gen)
	}
	kids[e] = a
	nd.setKids(slices.Delete(kids, e+1, e+2))
}
