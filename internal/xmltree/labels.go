package xmltree

import (
	"maps"
	"slices"
	"sort"
	"strings"
)

// The label index backs the compiled query engine's descendant steps: a
// query-shaped `//x` wants "every node labeled x in document order", which a
// tree walk answers in O(document) while this index answers it in
// O(matches). The index is built lazily on first use — documents that never
// serve such a query pay nothing — and from then on carried through every
// mutation: the live tree's index is edited in place, and an image's index
// is derived from its predecessor's, copying only the lists of the labels
// the mutations in between touched.

// labelIndex maps each label occurring in the document to its nodes in
// document order. Labels follow Node.Label conventions: plain element
// labels, "@name" attributes, "#text" text nodes.
type labelIndex map[string][]*Node

// Labeled returns the document-order list of nodes carrying the given
// label, building the index on first use. The returned slice is shared —
// callers must not modify it — and on a live document it is valid only
// until the next mutation, which edits it in place. Safe for concurrent
// use.
func (d *Document) Labeled(label string) []*Node {
	if li := d.labels.Load(); li != nil {
		return (*li)[label]
	}
	d.labelMu.Lock()
	defer d.labelMu.Unlock()
	if li := d.labels.Load(); li != nil {
		return (*li)[label]
	}
	li := make(labelIndex)
	Walk(d.Root, func(n *Node) bool {
		li[n.Label] = append(li[n.Label], n)
		return true
	})
	d.labels.Store(&li)
	return li[label]
}

// labelPatch edits a label index as subtrees enter and leave the tree. With
// fresh nil, lists are edited in place: the live tree's own index. Otherwise
// li is an image's private copy of its predecessor's map, whose lists
// readers of the predecessor still hold, and a list is cloned the first
// time it is touched; fresh remembers which have been.
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

// labelsAdd and labelsDrop keep the live tree's own index, if it has been
// built, in step with the subtrees one mutation inserted or detached.
func (d *Document) labelsAdd(roots []*Node) {
	if li := d.labels.Load(); li != nil {
		labelPatch{li: *li}.add(roots)
	}
}

func (d *Document) labelsDrop(roots []*Node) {
	if li := d.labels.Load(); li != nil {
		labelPatch{li: *li}.drop(roots)
	}
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

// carryLabels derives an image's label index from its predecessor's: from
// and to are the two images' roots, and only where they differ — the
// path-copied spines, what was deleted, what was inserted — is any list
// touched.
func carryLabels(old labelIndex, from, to *Node) labelIndex {
	p := labelPatch{li: maps.Clone(old), fresh: map[string]bool{}}
	var dropped, added []*Node
	p.diff(from, to, &dropped, &added)
	// Deletions first: an ID freed by a deletion can be assigned again
	// within the same epoch, and drop goes by key.
	p.drop(dropped)
	p.add(added)
	return p.li
}

// diff walks two images of one document down the nodes they do not share.
// old and new carry the same ID but are different nodes: new takes old's
// place in the index, and their child lists are merged by key — a shared
// child ends the descent, a child on one side only is a deleted or an
// inserted subtree.
func (p labelPatch) diff(old, new *Node, dropped, added *[]*Node) {
	list := p.list(new.Label)
	list[keyAtLeast(list, new.ID.Key())] = new
	p.li[new.Label] = list
	oc, nc := old.Children, new.Children
	for len(oc) > 0 || len(nc) > 0 {
		switch {
		case len(oc) > 0 && len(nc) > 0 && oc[0] == nc[0]:
			oc, nc = oc[1:], nc[1:]
		case len(nc) == 0 || len(oc) > 0 && oc[0].ID.Key() < nc[0].ID.Key():
			*dropped = append(*dropped, oc[0])
			oc = oc[1:]
		case len(oc) == 0 || nc[0].ID.Key() < oc[0].ID.Key():
			*added = append(*added, nc[0])
			nc = nc[1:]
		default:
			p.diff(oc[0], nc[0], dropped, added)
			oc, nc = oc[1:], nc[1:]
		}
	}
}
