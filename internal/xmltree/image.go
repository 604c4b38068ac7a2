package xmltree

import "xivm/internal/dewey"

// Epoch publication. Snapshot hands out the document's current tree as an
// immutable epoch for concurrent readers, and the writer keeps mutating the
// same tree persistently: before a mutator edits a node that an epoch can
// reach, own replaces the nodes from the root down to it by copies, each at
// most once per publication, and every other subtree stays shared with the
// epochs published before. A copy takes its own slice of the child list's
// top level, and of each branch on the way to the child it leads to — a
// list of more than 64 children is a B+-tree of ≤ 64-entry branches
// (kids.go) — so a wide parent costs a leaf and its path, not its children.
// An update therefore costs O(depth × log fan-out + |delta|) nodes and
// bytes, not O(document).
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
	d.indexWanted()
	img := &Document{Root: d.Root, frozen: true, size: d.size, copied: d.copied, labels: d.labels, labelGen: d.labelGen}
	// Nothing reachable from img is owned by the next publication.
	if d.gen++; d.gen == 0 {
		d.restamp()
	}
	return img
}

// CopiedNodes returns how many nodes the mutators have allocated in the
// document's lineage up to d — spine copies plus inserted subtrees, and the
// whole tree once per stamp wrap (restamp); for a freshly parsed
// document's first epoch, none.
func (d *Document) CopiedNodes() int { return d.copied }

// CopiedSince returns how many nodes the mutators allocated between the
// epoch prev and d, however many snapshots were taken in between; with
// prev nil or of another lineage, CopiedNodes.
func (d *Document) CopiedSince(prev *Document) int {
	if prev == nil || prev.labels.want != d.labels.want {
		return d.copied
	}
	return d.copied - prev.copied
}

// resetImage forgets the one thing the mutators maintain beside the tree,
// the label index, so that the next Labeled is a fresh walk. Call it when
// every node moved or changed its ID (restamp, ApplyOrds): nothing indexed
// under the old ones survives. Epochs already published keep their index.
func (d *Document) resetImage() {
	d.labels, d.labelGen = &labelCell{want: d.labels.want}, d.gen
}

// restamp runs when the publication stamp wraps: a node copied 2^32
// publications ago would now carry the current stamp and pass for owned,
// and be edited under its readers. The writer moves to a deep copy stamped
// as shared — once per 2^32 publications — and leaves the old tree to the
// epochs that hold it. The copy keeps every child list's shape: a branch is
// copied as a node is.
func (d *Document) restamp() {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := *n
		m.gen = 0
		if kids := n.kids(); kids != nil {
			own := make([]*Node, len(kids))
			for i, c := range kids {
				own[i] = cp(c)
			}
			m.setKids(own)
		}
		return &m
	}
	d.Root, d.gen = cp(d.Root), 1
	d.copied += d.size
	d.resetImage()
}

// own returns the node with the given ID, the writer's to edit: every node
// on the way down from the root that a published epoch can still reach is
// first replaced by a copy, and reported through replaced; so is every
// branch of a child list on the way, which no one hears of. The copies
// carry d.gen, so a batch that touches one spine many times copies it once.
// Nil when the tree holds no such node.
func (d *Document) own(id dewey.ID, replaced *[]*Node) *Node {
	c := id.Cursor()
	if !c.Next() || d.Root.ID().Key() != c.Key() {
		return nil
	}
	slot := &d.Root
	for {
		n := *slot
		if n.gen != d.gen {
			n = hold(n, d.gen)
			*slot = n
			d.copied++
			*replaced = append(*replaced, n)
		}
		if !c.Next() {
			return n
		}
		if slot = kidSlot(n, c.Key(), d.gen); slot == nil {
			return nil
		}
	}
}
