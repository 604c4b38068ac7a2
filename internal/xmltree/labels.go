package xmltree

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xivm/internal/dewey"
)

// The label index backs the compiled query engine's descendant steps: a
// query-shaped `//x` wants "every node labeled x in document order", which a
// tree walk answers in O(document) while this index answers it in
// O(matches). The index is built lazily on first use — documents that never
// serve such a query pay nothing — and from then on carried through every
// mutation and every publication: a document lineage (the writer and the
// epochs it froze) has one index, copy-on-write per chunk. A label's nodes
// are a dewey.Run ordered by ID key; the mutators patch it with what they
// already know — the spine nodes they replaced, the subtrees they detached
// and inserted — and an edit copies the chunk of the list it lands in, never
// the list.

// labelIndex maps each label occurring in the document to its nodes in
// document order, keyed by what Node.Label returns: plain element labels,
// "@name" attributes, "#text" text nodes.
type labelIndex map[string]*labelList

// labelList is one label's nodes, and the publication (Document.gen) whose
// writer made the list its own: it alone may edit the list where it stands.
type labelList struct {
	nodes dewey.Run[*Node]
	gen   uint32
}

func compareNodes(a, b *Node) int { return a.ID.Compare(b.ID) }

// own returns the label's list for the writer of publication gen to edit.
// A list made for an earlier publication is in an epoch's hands: the writer
// leaves it for a frozen copy, whose edits copy the chunks they land in.
func (li labelIndex) own(label string, gen uint32) *dewey.Run[*Node] {
	l := li[label]
	switch {
	case l == nil:
		l = &labelList{nodes: dewey.NewRun(compareNodes), gen: gen}
		li[label] = l
	case l.gen != gen:
		fork := *l
		fork.nodes.Freeze()
		fork.gen = gen
		l = &fork
		li[label] = l
	}
	return &l.nodes
}

// labelCell holds one version of the lineage's index. The writer and every
// epoch frozen since the writer's last edit are the same tree and share one
// cell, so whichever of them is asked first builds the index for all; the
// writer's next mutation moves it to a cell of its own (patchLabels).
type labelCell struct {
	mu sync.Mutex // serializes construction so concurrent readers build once
	li atomic.Pointer[labelIndex]
}

// LabeledChunks returns the document-order list of nodes carrying the given
// label as the index holds it, building the index on first use. The chunks
// are shared — callers must not modify them — and valid for the tree they
// were asked of: an epoch's for good, the writer's until the next mutation.
// Safe for concurrent use.
func (d *Document) LabeledChunks(label string) dewey.Chunks[*Node] {
	c := d.labels
	li := c.li.Load()
	if li == nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if li = c.li.Load(); li == nil {
			// The lists are stamped with the publication at which the cell
			// became this lineage's: the writer's own if it has mutated
			// since it last published (or never published), an epoch's if
			// not — whoever builds them.
			built := make(labelIndex)
			Walk(d.Root, func(n *Node) bool {
				built.own(n.Label(), d.labelGen).Put(n) // document order: every Put is an append
				return true
			})
			li = &built
			c.li.Store(li)
		}
	}
	if l := (*li)[label]; l != nil {
		return l.nodes.Chunks()
	}
	return nil
}

// Labeled returns LabeledChunks as one slice, the caller's own.
func (d *Document) Labeled(label string) []*Node {
	return d.LabeledChunks(label).AppendTo(nil)
}

// patchLabels keeps the index in step with one mutation: replaced are the
// spine copies that took their originals' places, dropped the detached
// subtrees, added the inserted ones. The first mutation after a publication
// leaves the cell the epoch holds — whether or not the index has been built
// yet, or a reader building it later would hand the writer a stale one —
// for a map of its own over the same lists, each of which it leaves in turn
// when it first edits it (labelIndex.own).
func (d *Document) patchLabels(replaced, dropped, added []*Node) {
	if d.labelGen != d.gen {
		old := d.labels.li.Load()
		d.labels, d.labelGen = new(labelCell), d.gen
		if old != nil {
			li := maps.Clone(*old)
			d.labels.li.Store(&li)
		}
	}
	p := d.labels.li.Load()
	if p == nil {
		return
	}
	li := *p
	// Replacements first, while every replaced key is still in its list: a
	// nested batch delete may go on to detach a node it has just copied.
	for _, n := range replaced {
		li.own(n.Label(), d.gen).Put(n)
	}
	li.drop(dropped, d.gen)
	for _, r := range added {
		Walk(r, func(n *Node) bool {
			li.own(n.Label(), d.gen).Put(n)
			return true
		})
	}
}

// keyAtLeast returns the position of the first node of list whose key is
// not below key.
func keyAtLeast(list []*Node, key string) int {
	return sort.Search(len(list), func(i int) bool { return list[i].ID.Key() >= key })
}

// drop removes the subtrees at roots: from the list of every label that
// occurs in them, the block of nodes whose key extends a root's. Going by
// key rather than by the subtrees' present members makes it immaterial
// whether one root lies inside another.
func (li labelIndex) drop(roots []*Node, gen uint32) {
	labels := map[string]bool{}
	for _, r := range roots {
		Walk(r, func(n *Node) bool {
			labels[n.Label()] = true
			return true
		})
	}
	for label := range labels {
		run := li.own(label, gen)
		for _, r := range roots {
			key := r.ID.Key()
			run.Cut(r, func(n *Node) bool { return strings.HasPrefix(n.ID.Key(), key) })
		}
		if run.Len() == 0 {
			delete(li, label)
		}
	}
}
