package xmltree

import (
	"slices"
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
// epochs it froze) has one index, copy-on-write per tree node. A label's
// nodes are a dewey.Run ordered by ID key, and the lists a run ordered by
// label; the mutators patch them with what they already know — the spine
// nodes they replaced, the subtrees they detached and inserted — and an edit
// copies one leaf of the list it lands in and the path above it, never the
// list and never the index.

// labelIndex is one version of the lineage's index: each label occurring in
// the document with its nodes in document order, keyed by what Node.Label
// returns — plain element labels, "@name" attributes, "#text" text nodes.
// The lists lie in a run ordered by label, so forking the index for a new
// publication is a Freeze, and an edit copies the path to the list it
// replaces, not a map of every label.
type labelIndex struct {
	lists dewey.Run[*labelList]
}

// labelList is one label's nodes, and the publication (Document.gen) whose
// writer made the list its own: it alone may edit the list where it stands.
type labelList struct {
	label string
	nodes dewey.Run[*Node]
	gen   uint32
}

func compareNodes(a, b *Node) int { return a.ID().Compare(b.ID()) }

func compareLists(a, b *labelList) int { return strings.Compare(a.label, b.label) }

// list returns the label's list, nil if no node carries the label. It
// compares label strings: no allocation, no look-up in the label table.
func (li *labelIndex) list(label string) *labelList {
	l, _ := li.lists.Chunks().Find(func(l *labelList) int { return strings.Compare(l.label, label) })
	return l
}

// own returns the label's list for the writer of publication gen to edit.
// A list made for an earlier publication is in an epoch's hands: the writer
// leaves it for a frozen copy, whose edits copy the paths they land on.
func (li *labelIndex) own(label string, gen uint32) *labelList {
	l := li.list(label)
	switch {
	case l == nil:
		l = &labelList{label: label, nodes: dewey.NewRun(compareNodes), gen: gen}
		li.lists.Put(l)
	case l.gen != gen:
		fork := *l
		fork.nodes.Freeze()
		fork.gen = gen
		l = &fork
		li.lists.Put(l)
	}
	return l
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
// label as the index holds it, building the index on first use. The list is
// shared — callers must not modify it — and valid for the tree it was asked
// of: an epoch's for good, the writer's until the next mutation. Nil when
// no node carries the label. Safe for concurrent use; finding the list
// allocates nothing.
func (d *Document) LabeledChunks(label string) *dewey.Chunks[*Node] {
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
			li = d.buildLabels()
			c.li.Store(li)
		}
	}
	if l := li.list(label); l != nil {
		return l.nodes.Chunks()
	}
	return nil
}

// buildLabels indexes the whole tree in one walk: in document order, so
// every Put is an append, and the lists go into the index in label order,
// appends too.
func (d *Document) buildLabels() *labelIndex {
	byLabel := map[string]*labelList{}
	Walk(d.Root, func(n *Node) bool {
		label := n.Label()
		l := byLabel[label]
		if l == nil {
			l = &labelList{label: label, nodes: dewey.NewRun(compareNodes), gen: d.labelGen}
			byLabel[label] = l
		}
		l.nodes.Put(n)
		return true
	})
	lists := make([]*labelList, 0, len(byLabel))
	for _, l := range byLabel {
		lists = append(lists, l)
	}
	slices.SortFunc(lists, compareLists)
	li := &labelIndex{lists: dewey.NewRun(compareLists)}
	for _, l := range lists {
		li.lists.Put(l)
	}
	return li
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
// for a frozen copy of the index's run of lists (O(1): the lists and the
// run's nodes stay shared), each of which it leaves in turn when it first
// edits it (labelIndex.own).
func (d *Document) patchLabels(replaced, dropped, added []*Node) {
	if d.labelGen != d.gen {
		old := d.labels.li.Load()
		d.labels, d.labelGen = new(labelCell), d.gen
		if old != nil {
			fork := *old
			fork.lists.Freeze()
			d.labels.li.Store(&fork)
		}
	}
	li := d.labels.li.Load()
	if li == nil {
		return
	}
	// Replacements first, while every replaced key is still in its list: a
	// nested batch delete may go on to detach a node it has just copied.
	for _, n := range replaced {
		li.own(n.Label(), d.gen).nodes.Put(n)
	}
	li.drop(dropped, d.gen)
	for _, r := range added {
		Walk(r, func(n *Node) bool {
			li.own(n.Label(), d.gen).nodes.Put(n)
			return true
		})
	}
}

// drop removes the subtrees at roots: from the list of every label that
// occurs in them, the block of nodes whose key extends a root's. Going by
// key rather than by the subtrees' present members makes it immaterial
// whether one root lies inside another.
func (li *labelIndex) drop(roots []*Node, gen uint32) {
	labels := map[string]bool{}
	for _, r := range roots {
		Walk(r, func(n *Node) bool {
			labels[n.Label()] = true
			return true
		})
	}
	for label := range labels {
		l := li.own(label, gen)
		for _, r := range roots {
			key := r.ID().Key()
			l.nodes.Cut(r, func(n *Node) bool { return strings.HasPrefix(n.ID().Key(), key) })
		}
		if l.nodes.Len() == 0 {
			li.lists.Delete(l)
		}
	}
}
