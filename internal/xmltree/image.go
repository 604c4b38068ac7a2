package xmltree

import "xivm/internal/dewey"

// Epoch publication. Snapshot hands out the document's current tree as an
// immutable epoch for concurrent readers, and the writer keeps mutating the
// same tree persistently: before a mutator edits a node that an epoch can
// reach, own replaces the nodes from the root down to it by copies with
// their own Children slices, each at most once per publication, and every
// other subtree stays shared with the epochs published before. An update
// therefore costs O(depth × fan-out + |delta|) nodes, not O(document).
//
// Three rules follow, and the packages above rely on them:
//
//  1. Mutators go by ID, never by pointer. A pointer taken before a
//     mutation — a PUL target resolved before the batch ran — may be to a
//     node a copy has since replaced; its ID still names the place.
//  2. A mutator reports the nodes it replaced, and whatever holds node
//     pointers across mutations swaps them before content is read through
//     them again: the label index, which patchLabels re-points in the same
//     mutation, and which the canonical relations (store.Store) are read
//     from.
//  3. A document that was never published never copies: gen stays at the
//     stamp every parsed and inserted node carries, so own returns the
//     nodes themselves and the mutators edit in place.

// Snapshot returns the document's current state as an immutable epoch, safe
// for any number of concurrent readers while the document keeps mutating.
// It costs O(1): the epoch is a frozen Document over the writer's own root,
// its nodes and IDs are the writer's, and view rows and query results from
// the same epoch agree on node identity. Successive epochs share every
// subtree the mutations between them did not touch. Snapshot belongs to the
// goroutine that mutates the document.
func (d *Document) Snapshot() *Document {
	if d.frozen {
		return d // an epoch is its own snapshot
	}
	img := &Document{Root: d.Root, frozen: true, size: d.size, copied: d.copied, labels: d.labels, labelGen: d.labelGen}
	d.copied = 0
	// Nothing reachable from img is owned by the next publication.
	if d.gen++; d.gen == 0 {
		d.restamp()
	}
	return img
}

// CopiedNodes returns how many of an epoch's nodes the mutators allocated
// for it — spine copies plus inserted subtrees — rather than shared with
// the epoch before it; for a freshly parsed document's first epoch, none.
func (d *Document) CopiedNodes() int { return d.copied }

// ResetImage forgets the one thing the mutators maintain beside the tree,
// the label index, so that the next Labeled is a fresh walk. Call it when a
// mutator did not run to completion (a contained panic): the tree is then
// the only truth. Epochs already published keep their index.
func (d *Document) ResetImage() {
	d.labels, d.labelGen = new(labelCell), d.gen
}

// restamp runs when the publication stamp wraps: a node copied 2^32
// publications ago would now carry the current stamp and pass for owned,
// and be edited under its readers. The writer moves to a deep copy stamped
// as shared — once per 2^32 publications — and leaves the old tree to the
// epochs that hold it.
func (d *Document) restamp() {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Kind: n.Kind, code: n.code, Value: n.Value, ID: n.ID}
		if len(n.Children) > 0 {
			m.Children = make([]*Node, len(n.Children))
			for i, c := range n.Children {
				m.Children[i] = cp(c)
			}
		}
		return m
	}
	d.Root, d.gen, d.copied = cp(d.Root), 1, d.size
	d.ResetImage()
}

// own returns the node with the given ID, the writer's to edit: every node
// on the way down from the root that a published epoch can still reach is
// first replaced by a copy with its own Children slice, and reported
// through replaced. The copy carries d.gen, so a batch that touches one
// spine many times copies it once. Nil when the tree holds no such node.
func (d *Document) own(id dewey.ID, replaced *[]*Node) *Node {
	c := id.Cursor()
	if !c.Next() || d.Root.ID.Key() != c.Key() {
		return nil
	}
	slot := &d.Root
	for {
		n := *slot
		if n.gen != d.gen {
			n = &Node{Kind: n.Kind, code: n.code, gen: d.gen, Value: n.Value, ID: n.ID,
				Children: append(make([]*Node, 0, len(n.Children)+1), n.Children...)}
			*slot = n
			d.copied++
			*replaced = append(*replaced, n)
		}
		if !c.Next() {
			return n
		}
		i := ChildIndex(n, c.Key())
		if i < 0 {
			return nil
		}
		slot = &n.Children[i]
	}
}
