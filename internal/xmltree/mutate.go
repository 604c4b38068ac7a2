package xmltree

import (
	"errors"
	"slices"

	"xivm/internal/dewey"
)

// The mutators go by the IDs of the nodes they are given (rule 1 of
// image.go) and return, beside their result, the spine nodes they replaced
// (rule 2) — none, on a never-published document.

var errFrozen = errors.New("xmltree: an epoch is immutable")

// ApplyInsert implements the paper's apply-insert(n, t) primitive: it copies
// the tree t into a fresh tree t', inserts t' as the new last child of n,
// assigns structural IDs to every copied node (as a side effect of the
// document update, exactly as the paper assumes), and returns t'. Existing
// node IDs are never modified.
func (d *Document) ApplyInsert(n *Node, t *Node) (*Node, error) {
	out, _, err := d.ApplyInsertions([]Insertion{{Target: n, Trees: []*Node{t}}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Insertion is one entry of an insertion list: the trees to copy, in order,
// as new last children of the node that has Target's ID.
type Insertion struct {
	Target *Node
	Trees  []*Node
}

// ApplyInsertions applies a whole insertion list — what one statement
// expands to — as one mutation, returning the inserted copies in list
// order. Nothing is inserted unless every target is an element of the
// document. Taking the list at once lets the label index absorb thousands
// of insertions in one pass per label instead of one per insertion.
func (d *Document) ApplyInsertions(ins []Insertion) (copies, replaced []*Node, err error) {
	if d.frozen {
		return nil, nil, errFrozen
	}
	for _, in := range ins {
		if in.Target == nil {
			return nil, nil, errors.New("xmltree: insertion target must be an element")
		}
		if t := d.NodeByID(in.Target.ID()); t == nil || t.Kind != Element {
			return nil, nil, errors.New("xmltree: insertion target must be an element of the document")
		}
	}
	for _, in := range ins {
		p := d.own(in.Target.ID(), &replaced)
		for _, t := range in.Trees {
			cp := d.cloneAssign(t, p, dewey.Between(p.lastOrd(), nil))
			d.keys.flush()
			appendKid(p, cp, d.gen)
			copies = append(copies, cp)
		}
	}
	d.patchLabels(replaced, nil, copies)
	return copies, replaced, nil
}

// cloneAssign copies the tree t under parent in a single walk, placing
// each copy's structural ID (gap-spaced ordinals below the root copy) with
// d.keys, which the caller flushes, and counting it — the fused equivalent
// of Clone + assignIDs. The copies are the current publication's own.
func (d *Document) cloneAssign(t, parent *Node, ord dewey.Ord) *Node {
	c := &Node{Kind: t.Kind, code: t.code, gen: d.gen}
	c.setValue(t.Value())
	d.keys.place(c, parent, t.code, t.Label(), ord)
	d.size++
	d.copied++
	if w := t.NumChildren(); w > 0 {
		c.setKids(make([]*Node, 0, min(w, fanout)))
		i := 0
		for k := t.Kids(); k.Next(); i++ {
			appendKid(c, d.cloneAssign(k.Node(), c, dewey.OrdAt(i)), d.gen)
		}
	}
	return c
}

// ApplyDelete implements apply-delete(n): it detaches the subtree that has
// n's ID from the document. Per XQuery Update semantics all descendants
// leave the document with it. It returns the detached subtree (IDs intact,
// for delta extraction).
func (d *Document) ApplyDelete(n *Node) (*Node, error) {
	out, _, err := d.ApplyDeleteBatch([]*Node{n})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("xmltree: node not attached to its parent")
	}
	return out[0], nil
}

// ApplyDeleteBatch detaches the subtrees that have the given nodes' IDs,
// each cut out of its parent's child list by key: a search per level of the
// list, however wide the parent. The detached roots are returned in input
// order, as they stand in the document now: a victim an earlier mutation
// replaced by a copy comes back as that copy. An ID named twice, or one the
// document no longer holds, detaches nothing more. When one victim lies
// inside another both are returned, the outer without the inner.
func (d *Document) ApplyDeleteBatch(nodes []*Node) (detached, replaced []*Node, err error) {
	if d.frozen {
		return nil, nil, errFrozen
	}
	victims := make(map[string]*Node, len(nodes)) // key → the node detached for it, once found
	var ids []dewey.ID
	for _, n := range nodes {
		if n == nil {
			return nil, nil, errors.New("xmltree: nil deletion target")
		}
		if n.ID().Parent().IsNull() {
			return nil, nil, errors.New("xmltree: cannot delete the document root")
		}
		if _, dup := victims[n.ID().Key()]; !dup {
			victims[n.ID().Key()] = nil
			ids = append(ids, n.ID())
		}
	}
	// Descending key order puts a victim before every victim that holds it:
	// a parent inside another victim is still attached when its child is
	// cut, and leaves with that victim after. Siblings come together, and
	// share one descent to their parent.
	slices.SortFunc(ids, func(a, b dewey.ID) int { return b.Compare(a) })
	var p *Node
	var pid dewey.ID
	for _, id := range ids {
		if par := id.Parent(); p == nil || !par.Equal(pid) {
			pid, p = par, d.own(par, &replaced)
		}
		if p == nil {
			continue
		}
		if c := cutKid(p, id.Key(), d.gen); c != nil {
			victims[id.Key()] = c
		}
	}
	for _, n := range nodes {
		if c := victims[n.ID().Key()]; c != nil {
			victims[n.ID().Key()] = nil // a duplicate entry is already detached
			d.size -= c.CountNodes()
			detached = append(detached, c)
		}
	}
	d.patchLabels(replaced, detached, nil)
	return detached, replaced, nil
}
