package xmltree

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xivm/internal/dewey"
)

// The label index backs the compiled query engine's descendant steps and
// the store's canonical relations: `//x` wants "every node labeled x in
// document order", which a tree walk answers in O(document) while this
// index answers it in O(matches). It holds the labels someone asked for,
// each indexed by one walk on first ask — none if no node carries it,
// unless IndexLabels asked for it — and from then on carried through every mutation and every publication, even
// emptied: a document lineage (the writer and the epochs it froze) has one
// index, copy-on-write per tree node. A label's nodes are a dewey.Run
// ordered by ID key, and the lists a run ordered by label; the mutators
// patch them with what they already know — the spine nodes they replaced,
// the subtrees they detached and inserted — and an edit copies one leaf of
// the list it lands in and the path above it, never the list or the index.

// labelIndex is one version of the lineage's index (nil: no label): each
// label asked for with its nodes in document order, keyed by what
// Node.Label returns — plain element labels, "@name" attributes, "#text"
// text nodes. The lists lie in a run ordered by label, so forking the index
// for a new publication is a Freeze, and an edit copies the path to the
// list it replaces, not a map of every label.
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

// list returns the label's list, nil if the label is not indexed. It
// compares label strings: no allocation, no look-up in the label table.
func (li *labelIndex) list(label string) *labelList {
	if li == nil {
		return nil
	}
	l, _ := li.lists.Chunks().Find(func(l *labelList) int { return strings.Compare(l.label, label) })
	return l
}

// own returns l, one of the index's lists, for the writer of publication
// gen to edit. A list made for an earlier publication is in an epoch's
// hands: the writer leaves it for a frozen copy, whose edits copy the paths
// they land on.
func (li *labelIndex) own(l *labelList, gen uint32) *labelList {
	if l.gen != gen {
		fork := *l
		fork.nodes.Freeze()
		fork.gen = gen
		l = &fork
		li.lists.Put(l)
	}
	return l
}

// put files n in its label's list if the label is indexed.
func (li *labelIndex) put(n *Node, gen uint32) {
	if l := li.list(n.Label()); l != nil {
		li.own(l, gen).nodes.Put(n)
	}
}

// labelCell holds one version of the lineage's index. The writer and every
// epoch frozen since the writer's last edit are the same tree and share one
// cell, so a label any of them indexes is indexed for all; the writer's
// next mutation moves it to a cell of its own (patchLabels).
type labelCell struct {
	mu   sync.Mutex // serializes walks so concurrent readers walk once
	li   atomic.Pointer[labelIndex]
	want *labelWants // the lineage's, handed from cell to cell
}

// labelWants is the lineage's want set: the labels readers walked for on
// epochs, which the writer indexes too when it next publishes, so a label
// only readers ask for is not walked for once an epoch.
type labelWants struct {
	mu    sync.Mutex
	asked []string     // appended to by each such walk
	seen  int          // the writer's: how many of asked it has indexed
	walks atomic.Int64 // walks that indexed a label, for the tests
}

// LabelWalks returns how many walks of a tree have indexed labels in d's
// lineage: one for each walk a reader or the writer made, however many
// labels it indexed, none for a label found indexed. It is how a test
// holds a path to the walks it should cost.
func LabelWalks(d *Document) int64 { return d.labels.want.walks.Load() }

// LabeledChunks returns the document-order list of nodes carrying the given
// label as the index holds it, indexing the label on first use. The list is
// shared — callers must not modify it — and valid for the tree it was asked
// of: an epoch's for good, the writer's until the next mutation. Nil when
// no node carries the label. Safe for concurrent use; finding an indexed
// label's list allocates nothing.
func (d *Document) LabeledChunks(label string) *dewey.Chunks[*Node] {
	l := d.labels.li.Load().list(label)
	if l == nil {
		d.index(false, label)
		l = d.labels.li.Load().list(label)
	}
	if l == nil || l.nodes.Len() == 0 {
		return nil
	}
	return l.nodes.Chunks()
}

// IndexLabels indexes every one of labels the index lacks in one walk of
// the tree, where LabeledChunks would walk once a label: it is how a
// caller about to read several relations pays for their lists at once.
// Unlike LabeledChunks, it keeps an empty list for a label no node
// carries, patched like any other from then on, so a caller that reads
// the label at every statement does not walk the tree for it each time.
func (d *Document) IndexLabels(labels []string) { d.index(true, labels...) }

// index indexes each of labels the cell has no list for by one walk of the
// tree (in document order, so every Put is an append), into a frozen copy
// of the run of lists that the cell then holds; a label no node carries
// gets an empty list if keepEmpty, else none. The lists are stamped with
// the publication at which the cell became this lineage's, whoever walks;
// an epoch's walk goes into the want set.
func (d *Document) index(keepEmpty bool, labels ...string) {
	c := d.labels
	c.mu.Lock()
	defer c.mu.Unlock()
	li := c.li.Load()
	type want struct {
		code  uint16
		label string
		l     *labelList
	}
	var buf [16]want
	wants := buf[:0]
	for _, label := range labels {
		if li.list(label) == nil && !slices.ContainsFunc(wants, func(w want) bool { return w.label == label }) {
			// A node's label is its code's, or its own if it has none.
			wants = append(wants, want{code: dewey.Lookup(label), label: label})
		}
	}
	if len(wants) == 0 {
		return
	}
	c.want.walks.Add(1)
	Walk(d.Root, func(n *Node) bool {
		for i := range wants {
			w := &wants[i]
			if n.code == w.code && (w.code != 0 || n.Label() == w.label) {
				if w.l == nil {
					w.l = &labelList{label: n.Label(), nodes: dewey.NewRun(compareNodes), gen: d.labelGen}
				}
				w.l.nodes.Put(n)
				break
			}
		}
		return true
	})
	if keepEmpty {
		for i := range wants {
			if wants[i].l == nil {
				wants[i].l = &labelList{label: wants[i].label, nodes: dewey.NewRun(compareNodes), gen: d.labelGen}
			}
		}
	}
	wants = slices.DeleteFunc(wants, func(w want) bool { return w.l == nil })
	if len(wants) == 0 {
		return
	}
	next := labelIndex{lists: dewey.NewRun(compareLists)}
	if li != nil {
		next = *li
		next.lists.Freeze()
	}
	for _, w := range wants {
		next.lists.Put(w.l)
		if d.frozen {
			c.want.mu.Lock()
			c.want.asked = append(c.want.asked, w.l.label)
			c.want.mu.Unlock()
		}
	}
	c.li.Store(&next)
}

// indexWanted indexes, from the writer's tree, the labels readers walked
// for since it last looked, before Snapshot hands its cell to an epoch.
func (d *Document) indexWanted() {
	w := d.labels.want
	w.mu.Lock()
	asked := w.asked[w.seen:]
	w.seen = len(w.asked)
	w.mu.Unlock()
	d.index(false, asked...)
}

// Labeled returns LabeledChunks as one slice, the caller's own.
func (d *Document) Labeled(label string) []*Node {
	return d.LabeledChunks(label).AppendTo(nil)
}

// patchLabels keeps the indexed labels' lists in step with one mutation:
// replaced are the spine copies that took their originals' places, dropped
// the detached subtrees, added the inserted ones. The first mutation after
// a publication leaves the cell the epoch holds — or a reader indexing a
// label in it later would hand the writer a stale list — for a frozen copy
// of the index's run of lists (O(1): the lists and the run's nodes stay
// shared), each of which it leaves in turn when it first edits it
// (labelIndex.own).
func (d *Document) patchLabels(replaced, dropped, added []*Node) {
	if d.labelGen != d.gen {
		old := d.labels.li.Load()
		d.labels, d.labelGen = &labelCell{want: d.labels.want}, d.gen
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
		li.put(n, d.gen)
	}
	li.drop(dropped, d.gen)
	for _, r := range added {
		Walk(r, func(n *Node) bool {
			li.put(n, d.gen)
			return true
		})
	}
}

// drop removes the subtrees at roots: from the list of every indexed label
// that occurs in them, the block of nodes whose key extends a root's. Going
// by key rather than by the subtrees' present members makes it immaterial
// whether one root lies inside another. A list left empty stays indexed.
func (li *labelIndex) drop(roots []*Node, gen uint32) {
	var found [16]*labelList
	lists := found[:0]
	for _, r := range roots {
		Walk(r, func(n *Node) bool {
			if l := li.list(n.Label()); l != nil && !slices.Contains(lists, l) {
				lists = append(lists, l)
			}
			return true
		})
	}
	for _, l := range lists {
		l = li.own(l, gen)
		for _, r := range roots {
			key := r.ID().Key()
			l.nodes.Cut(r, func(n *Node) bool { return strings.HasPrefix(n.ID().Key(), key) })
		}
	}
}
