// Package store implements the storage layer: the per-label canonical
// relations R_a in document order, read from the document's label index of
// the labels asked for, materialized view row stores, and lattice-node
// (snowcap) materializations. It plays the role BerkeleyDB played in the
// paper's ViP2P prototype.
package store

import (
	"slices"
	"sort"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Store serves the canonical relations of one document: R_a, the list of
// (ID,val,cont) tuples of a-labeled nodes in document order, is read from
// the document's label index (xmltree.Document.LabeledChunks), which indexes
// a on first ask and keeps it in step with the tree; the store holds no copy
// of it, nor of anything derived from it. R_* is read by a walk of the tree,
// R_~word as σ over R_#text. Every read builds a fresh slice for its caller,
// so a slice held across a mutation keeps exactly the items it was given.
//
// The one state the index cannot show is the one an insertion propagates
// against: the relations as they were before it, with their nodes' content
// as it is after. For that long the statement's inserted subtrees are
// hidden from every read (Hide).
//
// Any number of goroutines may read (Items, Inputs, Probe, Under) at once,
// but not while the document mutates, nor while Hide runs.
type Store struct {
	doc *xmltree.Document

	// hidden holds the keys of the hidden subtrees' roots, sorted. Set and
	// cleared by Hide alone, never while a reader runs.
	hidden []string

	// Observability (nil counters are no-op sinks; see SetMetrics).
	scanCount  *obs.Counter
	scanItems  *obs.Counter
	probeItems *obs.Counter
}

// SetMetrics wires the store's counters into a registry:
//
//	store.scan.count      canonical-relation scans served
//	store.scan.items      items those scans went over
//	store.probe.items     items the reduced reads (Probe, Under) returned
//
// A "~word" read is one scan of R_#text. Call before concurrent use; a
// store without metrics records nothing.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.scanCount = m.Counter("store.scan.count")
	s.scanItems = m.Counter("store.scan.items")
	s.probeItems = m.Counter("store.probe.items")
}

// New returns the store of doc. It reads nothing yet: a label is indexed
// by the first read that asks for it, if no reader of the document has
// asked already.
func New(doc *xmltree.Document) *Store { return &Store{doc: doc} }

// items reads R_label from the label index into a fresh slice, without the
// hidden subtrees.
func (s *Store) items(label string) []algebra.Item {
	list := s.doc.LabeledChunks(label)
	out := make([]algebra.Item, 0, list.Len())
	list.EachLeaf(func(leaf []*xmltree.Node) bool {
		for _, n := range leaf {
			out = append(out, algebra.Item{ID: n.ID(), Node: n})
		}
		return true
	})
	return s.withoutHidden(out)
}

// withoutHidden cuts the hidden subtrees out of document-ordered items, in
// place: each is the block of items whose key extends its root's, found by
// binary search rather than by probing every item.
func (s *Store) withoutHidden(items []algebra.Item) []algebra.Item {
	if len(s.hidden) == 0 {
		return items
	}
	kept, from := 0, 0 // items[:kept] are settled, items[from:] still to be sifted
	for _, key := range s.hidden {
		lo := from + sort.Search(len(items)-from, func(i int) bool { return items[from+i].ID.Key() >= key })
		hi := lo + sort.Search(len(items)-lo, func(i int) bool { return !strings.HasPrefix(items[lo+i].ID.Key(), key) })
		kept += copy(items[kept:], items[from:lo])
		from = hi
	}
	kept += copy(items[kept:], items[from:])
	clear(items[kept:])
	return items[:kept]
}

// Probe appends to dst the nodes of R_label whose keys are among keys,
// which ascend with no two equal, in document order and without the
// hidden subtrees: one descent of the label's list per key, so the read
// costs the keys, not the relation. label is an element, "@name" or
// "#text" label; R_* and R_~word are read whole (Items).
func (s *Store) Probe(dst []algebra.Item, label string, keys []string) []algebra.Item {
	list, start := s.doc.LabeledChunks(label), len(dst)
	for _, key := range keys {
		if n, ok := list.Find(func(n *xmltree.Node) int { return strings.Compare(n.ID().Key(), key) }); ok {
			dst = append(dst, algebra.Item{ID: n.ID(), Node: n})
		}
	}
	return s.probed(dst, start)
}

// Under appends to dst the nodes of R_label that lie strictly inside the
// subtrees at roots, which are in document order, in document order and
// without the hidden subtrees. A subtree's nodes are one key range of the
// label's list, read by one seek to its root's key; a root inside the one
// before it is inside its range already and is skipped. label is as
// Probe's.
func (s *Store) Under(dst []algebra.Item, label string, roots []algebra.Item) []algebra.Item {
	list, start := s.doc.LabeledChunks(label), len(dst)
	var last string // the last root read
	for _, r := range roots {
		key := r.ID.Key()
		if last != "" && strings.HasPrefix(key, last) {
			continue
		}
		last = key
		list.From(func(n *xmltree.Node) int { return strings.Compare(n.ID().Key(), key) }, func(n *xmltree.Node) bool {
			k := n.ID().Key()
			if !strings.HasPrefix(k, key) {
				return false
			}
			if len(k) > len(key) {
				dst = append(dst, algebra.Item{ID: n.ID(), Node: n})
			}
			return true
		})
	}
	return s.probed(dst, start)
}

// probed cuts the hidden subtrees out of what a reduced read appended to
// dst after start, and counts what is left.
func (s *Store) probed(dst []algebra.Item, start int) []algebra.Item {
	dst = dst[:start+len(s.withoutHidden(dst[start:]))]
	s.probeItems.Add(int64(len(dst) - start))
	return dst
}

// Items returns the canonical relation for a pattern label, in a fresh
// slice the caller owns: "*" yields all elements, "@name" attribute nodes,
// "#text" text nodes, "~word" the text nodes containing that word, anything
// else the elements with that label.
func (s *Store) Items(label string) []algebra.Item {
	s.scanCount.Inc()
	var out []algebra.Item
	switch word, isWord := strings.CutPrefix(label, "~"); {
	case isWord:
		out = s.items(xmltree.TextLabel)
		s.scanItems.Add(int64(len(out)))
		return slices.DeleteFunc(out, func(it algebra.Item) bool { return !it.Node.MatchesWord(word) })
	case label == "*":
		out = s.elements()
	default:
		out = s.items(label)
	}
	s.scanItems.Add(int64(len(out)))
	return out
}

// IndexFor indexes, in one walk of the document, every label list the
// patterns' relations read (Items, Probe, Under): a "~word" node reads
// R_#text, a "*" node none, being a walk itself. A label no node carries
// keeps an empty list, so reading it later costs no walk.
func (s *Store) IndexFor(ps []*pattern.Pattern) {
	var labels []string
	for _, p := range ps {
		for _, n := range p.Nodes {
			switch {
			case n.Label == "*":
			case strings.HasPrefix(n.Label, "~"):
				labels = append(labels, xmltree.TextLabel)
			default:
				labels = append(labels, n.Label)
			}
		}
	}
	s.doc.IndexLabels(labels)
}

// elements reads R_* by one walk of the document, which skips the hidden
// subtrees.
func (s *Store) elements() []algebra.Item {
	var out []algebra.Item
	xmltree.Walk(s.doc.Root, func(n *xmltree.Node) bool {
		if _, hidden := slices.BinarySearch(s.hidden, n.ID().Key()); hidden {
			return false
		}
		if n.Kind == xmltree.Element {
			out = append(out, algebra.Item{ID: n.ID(), Node: n})
		}
		return true
	})
	return out
}

// Inputs assembles σ-filtered per-node inputs for a pattern from the
// canonical relations.
func (s *Store) Inputs(p *pattern.Pattern) algebra.Inputs {
	in := make(algebra.Inputs, p.Size())
	for i := range p.Nodes {
		in[i] = s.Input(p, i)
	}
	return in
}

// Input is the σ-filtered input of pattern node i alone: one relation read.
func (s *Store) Input(p *pattern.Pattern, i int) []algebra.Item {
	n := p.Nodes[i]
	items := algebra.Filter(s.Items(n.Label), n, s.doc)
	if i == 0 {
		items = algebra.FilterRootAnchor(p, items)
	}
	return items
}

// Hide hides the subtrees at roots from every read until the next Hide,
// which replaces them; Hide(nil) shows the whole document again. Like a
// mutation, it must not run while another goroutine reads the store.
func (s *Store) Hide(roots []*xmltree.Node) {
	var keys []string
	for _, r := range roots {
		keys = append(keys, r.ID().Key())
	}
	slices.Sort(keys)
	s.hidden = keys
}
