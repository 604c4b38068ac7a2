package xmltree

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The label index backs the compiled query engine's descendant steps: a
// query-shaped `//x` wants "every node labeled x in document order", which a
// tree walk answers in O(document) while this index answers it in
// O(matches). The index is built lazily on first use — documents that never
// serve such a query pay nothing — and from then on carried through every
// mutation and every publication: a document lineage (the writer and the
// epochs it froze) has one index, copy-on-write per publication. The
// mutators patch it with what they already know — the spine nodes they
// replaced, the subtrees they detached and inserted — and only the lists of
// the labels a publication's mutations touched are ever copied.

// labelIndex maps each label occurring in the document to its nodes in
// document order. Labels follow Node.Label conventions: plain element
// labels, "@name" attributes, "#text" text nodes.
type labelIndex map[string][]*Node

// labelCell holds one version of the lineage's index. The writer and every
// epoch frozen since the writer's last edit are the same tree and share one
// cell, so whichever of them is asked first builds the index for all; the
// writer's next mutation moves it to a cell of its own (patchLabels).
type labelCell struct {
	mu sync.Mutex // serializes construction so concurrent readers build once
	li atomic.Pointer[labelIndex]
}

// Labeled returns the document-order list of nodes carrying the given
// label, building the index on first use. The returned slice is shared —
// callers must not modify it — and valid for the tree it was asked of: an
// epoch's for good, the writer's until the next mutation. Safe for
// concurrent use.
func (d *Document) Labeled(label string) []*Node {
	c := d.labels
	if li := c.li.Load(); li != nil {
		return (*li)[label]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if li := c.li.Load(); li != nil {
		return (*li)[label]
	}
	li := make(labelIndex)
	Walk(d.Root, func(n *Node) bool {
		li[n.Label] = append(li[n.Label], n)
		return true
	})
	c.li.Store(&li)
	return li[label]
}

// labelPatch edits a label index as subtrees enter and leave the tree. With
// fresh nil the document was never published and lists are edited in place.
// Otherwise li is the writer's private copy of the map the last epoch
// holds, whose lists that epoch's readers still read, and a list is cloned
// the first time it is touched; fresh remembers which have been.
type labelPatch struct {
	li    labelIndex
	fresh map[string]bool
}

// list returns the label's list, safe to edit.
func (p labelPatch) list(label string) []*Node {
	list := p.li[label]
	if p.fresh != nil && !p.fresh[label] {
		list = slices.Clone(list)
		p.fresh[label] = true
	}
	return list
}

// patchLabels keeps the index in step with one mutation: replaced are the
// spine copies that took their originals' places, dropped the detached
// subtrees, added the inserted ones. The first mutation after a publication
// leaves the cell the epoch holds — whether or not the index has been built
// yet, or a reader building it later would hand the writer a stale one.
func (d *Document) patchLabels(replaced, dropped, added []*Node) {
	if d.labelGen != d.gen {
		old := d.labels.li.Load()
		d.labels, d.fresh, d.labelGen = new(labelCell), map[string]bool{}, d.gen
		if old != nil {
			li := maps.Clone(*old)
			d.labels.li.Store(&li)
		}
	}
	li := d.labels.li.Load()
	if li == nil {
		return
	}
	p := labelPatch{li: *li, fresh: d.fresh}
	// Replacements first, while every replaced key is still in its list: a
	// nested batch delete may go on to detach a node it has just copied.
	for _, n := range replaced {
		list := p.list(n.Label)
		list[keyAtLeast(list, n.ID.Key())] = n
		p.li[n.Label] = list
	}
	p.drop(dropped)
	p.add(added)
}

// keyAtLeast returns the position of the first node of list whose key is
// not below key.
func keyAtLeast(list []*Node, key string) int {
	return sort.Search(len(list), func(i int) bool { return list[i].ID.Key() >= key })
}

// add indexes the subtrees at roots, each label's list in one pass however
// many subtrees there are: the new nodes of a label are sorted and merged
// in from the back, block-moving the old nodes between two insertion points.
func (p labelPatch) add(roots []*Node) {
	byLabel := map[string][]*Node{}
	for _, r := range roots {
		Walk(r, func(n *Node) bool {
			byLabel[n.Label] = append(byLabel[n.Label], n)
			return true
		})
	}
	for label, nodes := range byLabel {
		slices.SortFunc(nodes, func(a, b *Node) int { return a.ID.Compare(b.ID) })
		list := append(p.list(label), nodes...) // room; the tail is overwritten below
		rest := len(list) - len(nodes)          // list[:rest] are old nodes not yet in place
		for j := len(nodes) - 1; j >= 0; j-- {
			at := keyAtLeast(list[:rest], nodes[j].ID.Key())
			copy(list[at+j+1:], list[at:rest])
			list[at+j] = nodes[j]
			rest = at
		}
		p.li[label] = list
	}
}

// drop removes the subtrees at roots: from the list of every label that
// occurs in them, the blocks of nodes whose key extends a root's, again in
// one pass per list. Going by key rather than by the subtrees' present
// members makes it immaterial whether one root lies inside another.
func (p labelPatch) drop(roots []*Node) {
	keys := make([]string, len(roots))
	labels := map[string]bool{}
	for i, r := range roots {
		keys[i] = r.ID.Key()
		Walk(r, func(n *Node) bool {
			labels[n.Label] = true
			return true
		})
	}
	slices.Sort(keys)
	for label := range labels {
		list := p.list(label)
		kept, from := 0, 0 // list[:kept] is settled, list[from:] still to be sifted
		for _, key := range keys {
			lo := from + keyAtLeast(list[from:], key)
			hi := lo + sort.Search(len(list)-lo, func(i int) bool {
				return !strings.HasPrefix(list[lo+i].ID.Key(), key)
			})
			kept += copy(list[kept:], list[from:lo])
			from = hi
		}
		kept += copy(list[kept:], list[from:])
		clear(list[kept:])
		if kept == 0 {
			delete(p.li, label)
		} else {
			p.li[label] = list[:kept]
		}
	}
}
