package xmltree

import "xivm/internal/dewey"

// Epoch publication. Snapshot hands out an immutable image of the document
// for concurrent readers while the document itself keeps mutating. The
// first image is a deep copy. From then on the mutators mirror every
// insertion and deletion onto the image under construction by path copying:
// the nodes from the touched parent up to the root are replaced by copies
// with their own Children slices, each at most once per publication, and
// every other subtree stays shared with the images published before. An
// update therefore costs an image O(depth × fan-out + |delta|) nodes, not
// O(document). The live tree — Parent pointers, node identity —
// is never touched by any of this, and a document that is never published
// pays for none of it.
//
// Image nodes carry no Parent pointer: a shared node sits under a different
// copy of its parent in each image that holds it. Readers that need a
// parent resolve it within their image (ParentIn).

// Snapshot returns an immutable image of the document's current state, safe
// for any number of concurrent readers while the document keeps mutating.
// Its nodes carry the live nodes' IDs, so view rows and query results from
// the same epoch agree on node identity. Successive images share every
// subtree the mutations between them did not touch; an unchanged document
// yields the same image again. Snapshot belongs to the goroutine that
// mutates the document.
func (d *Document) Snapshot() *Document {
	if d.image {
		return d // an image is its own snapshot
	}
	prev := d.pub
	switch {
	case prev == nil:
		d.next = d.cloneImage(d.Root)
	case d.next == prev.Root:
		return prev
	}
	img := &Document{Root: d.next, image: true, size: d.size, copied: d.copied}
	if prev != nil {
		if li := prev.labels.Load(); li != nil {
			carried := carryLabels(*li, prev.Root, img.Root)
			img.labels.Store(&carried)
		}
	}
	d.pub, d.copied = img, 0
	// Nothing reachable from img is owned by the next publication.
	if d.gen++; d.gen == 0 {
		// The stamp wrapped: a node shared for 2^32 publications could now
		// pass for owned and be edited under its readers. Start over.
		d.ResetImage()
	}
	return img
}

// CopiedNodes returns how many of an image's nodes were allocated for it —
// spine copies plus inserted subtrees — rather than shared with the image
// before it; for a first image, all of them.
func (d *Document) CopiedNodes() int { return d.copied }

// ResetImage forgets what the mutators maintain beside the tree — the image
// under construction and the label index — so that the next Snapshot is a
// fresh deep copy and the next Labeled a fresh walk. Call it when a mutator
// did not run to completion (a contained panic): the live tree is then the
// only truth.
func (d *Document) ResetImage() {
	d.pub, d.next, d.copied = nil, nil, 0
	d.labels.Store(nil)
}

// cloneImage deep-copies a live subtree into the image under construction,
// IDs preserved, Parent left nil.
func (d *Document) cloneImage(n *Node) *Node {
	d.copied++
	m := &Node{Kind: n.Kind, gen: d.gen, Label: n.Label, Value: n.Value, ID: n.ID}
	if len(n.Children) > 0 {
		m.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			m.Children[i] = d.cloneImage(ch)
		}
	}
	return m
}

// own returns the node with the given ID in the image under construction,
// private to it: every node on the way down from the root that a published
// image still shares is first replaced by a copy with its own Children
// slice. The copy carries d.gen, so a batch that touches one spine many
// times copies it once.
func (d *Document) own(id dewey.ID) *Node {
	slot := &d.next
	c := id.Cursor()
	c.Next()
	for {
		n := *slot
		if n.gen != d.gen {
			n = &Node{Kind: n.Kind, gen: d.gen, Label: n.Label, Value: n.Value, ID: n.ID,
				Children: append(make([]*Node, 0, len(n.Children)+1), n.Children...)}
			*slot = n
			d.copied++
		}
		if !c.Next() {
			return n
		}
		i := ChildIndex(n, c.Key())
		if i < 0 {
			panic("xmltree: published image out of step with the document")
		}
		slot = &n.Children[i]
	}
}

// imageInsert mirrors ApplyInsert: cp is the live copy just appended to its
// parent.
func (d *Document) imageInsert(cp *Node) {
	if d.pub == nil {
		return
	}
	p := d.own(cp.Parent.ID)
	p.Children = append(p.Children, d.cloneImage(cp))
}

// imageDetach mirrors deletions under the live node parent, whose Children
// have already been filtered: the image keeps exactly the children whose
// live counterparts survived.
func (d *Document) imageDetach(parent *Node) {
	if d.pub == nil {
		return
	}
	p := d.own(parent.ID)
	kept := p.Children[:0]
	for _, c := range p.Children {
		if len(kept) < len(parent.Children) && c.ID.Equal(parent.Children[len(kept)].ID) {
			kept = append(kept, c)
		}
	}
	clear(p.Children[len(kept):])
	p.Children = kept
}
