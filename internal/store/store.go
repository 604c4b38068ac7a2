// Package store implements the storage layer: the per-label canonical
// relations R_a in document order, read from the document's label index,
// materialized view row stores, lattice-node (snowcap) materializations, and
// a compact binary snapshot format. It plays the role BerkeleyDB played in
// the paper's ViP2P prototype.
package store

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Store serves the canonical relations of one document: R_a, the list of
// (ID,val,cont) tuples of a-labeled nodes in document order, is read from
// the document's label index (xmltree.Document.LabeledChunks), which the
// mutators keep in step with the tree; the store holds no copy of it. Every
// read builds a fresh slice for its caller, so a slice held across a
// mutation keeps exactly the items it was given. Beside the index the store
// keeps two derived relations, built on first request and dropped by the
// mutations that would change them (Changed): the list of all element nodes
// for wildcard pattern nodes, and an inverted word index serving "~word"
// relations without rescanning the text relation on every access.
//
// The one state the index cannot show is the one an insertion propagates
// against: the relations as they were before it, with their nodes' content
// as it is after. For that long the statement's inserted subtrees are
// hidden from every read (Hide).
//
// Concurrency: any number of goroutines may read (Items, Count, Inputs,
// Labels) at once — parallel propagation does — but not while the document
// mutates, nor while Changed or Hide runs. mu serializes the cold builds of
// the derived relations, which concurrent readers may start at once.
type Store struct {
	doc *xmltree.Document

	// hidden holds the keys of the hidden subtrees' roots, sorted. Set and
	// cleared by Hide alone, never while a reader runs.
	hidden []string

	// mu guards elems and wordIdx.
	mu sync.RWMutex

	// elems caches the "*" relation: every element, in document order.
	elems   []algebra.Item
	elemsOK bool

	// wordIdx caches, per word, the document-ordered text items containing
	// it. The whole index is dropped whenever a text node enters or leaves
	// the document (word membership only ever changes through node
	// insertion/removal — value replacement expands to delete+insert).
	wordIdx map[string][]algebra.Item

	// Observability (nil counters are no-op sinks; see SetMetrics).
	scanCount     *obs.Counter
	scanItems     *obs.Counter
	snapshotBytes *obs.Counter
	wordHits      *obs.Counter
	wordBuilds    *obs.Counter
}

// SetMetrics wires the store's counters into a registry:
//
//	store.scan.count      canonical-relation scans served
//	store.scan.items      items handed out by those scans
//	store.snapshot.bytes  bytes produced by EncodeView
//	store.wordidx.hits    "~word" accesses served from the inverted index
//	store.wordidx.builds  "~word" index entries built by scanning
//
// Word-index hits do not count as scans: no relation is traversed.
// Call before concurrent use; a store without metrics records nothing.
func (s *Store) SetMetrics(m *obs.Metrics) {
	s.scanCount = m.Counter("store.scan.count")
	s.scanItems = m.Counter("store.scan.items")
	s.snapshotBytes = m.Counter("store.snapshot.bytes")
	s.wordHits = m.Counter("store.wordidx.hits")
	s.wordBuilds = m.Counter("store.wordidx.builds")
}

// New returns the store of doc. It reads nothing yet: the label index is
// built by the first read that needs it, if no reader of the document has
// built it already.
func New(doc *xmltree.Document) *Store { return &Store{doc: doc} }

// Doc returns the indexed document.
func (s *Store) Doc() *xmltree.Document { return s.doc }

// items reads R_label from the label index into a fresh slice, without the
// hidden subtrees.
func (s *Store) items(label string) []algebra.Item {
	chunks := s.doc.LabeledChunks(label)
	out := make([]algebra.Item, 0, chunks.Len())
	for _, c := range chunks {
		for _, n := range c {
			out = append(out, algebra.Item{ID: n.ID, Node: n})
		}
	}
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

// Items returns the canonical relation for a pattern label: "*" yields all
// elements, "@name" attribute nodes, "#text" text nodes, "~word" the text
// nodes containing that word, anything else the elements with that label.
// Word relations are served from the inverted word index; after the first
// access for a word (and until the next mutation of a text node) no scan of
// the text relation occurs. The store never writes to the returned slice:
// a plain label's is built for the caller, and a derived relation's is
// replaced, not edited, when a mutation makes it stale — so retaining the
// result across mutations is safe. Callers must not modify "*" or "~word"
// results, which other readers share.
func (s *Store) Items(label string) []algebra.Item {
	if word, isWord := strings.CutPrefix(label, "~"); isWord {
		return s.wordItems(word)
	}
	s.scanCount.Inc()
	var out []algebra.Item
	if label == "*" {
		out = s.elemItems()
	} else {
		out = s.items(label)
	}
	s.scanItems.Add(int64(len(out)))
	return out
}

// Count returns |R_label|: word labels are a length lookup on the inverted
// index (building its entry on a cold first access), every other label the
// length of its relation, which for a plain label with nothing hidden is a
// sum over the index's chunks.
func (s *Store) Count(label string) int {
	switch word, isWord := strings.CutPrefix(label, "~"); {
	case isWord:
		return len(s.wordItems(word))
	case label == "*":
		return len(s.elemItems())
	case len(s.hidden) == 0:
		return s.doc.LabeledChunks(label).Len()
	}
	return len(s.items(label))
}

// elemItems serves R_* from its cache, building it on a cold access by one
// walk of the document, which skips the hidden subtrees. As in wordItems
// the build holds the write lock, so concurrent readers build it once.
func (s *Store) elemItems() []algebra.Item {
	s.mu.RLock()
	out, ok := s.elems, s.elemsOK
	s.mu.RUnlock()
	if ok {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.elemsOK {
		s.elems = nil
		xmltree.Walk(s.doc.Root, func(n *xmltree.Node) bool {
			if s.isHidden(n) {
				return false
			}
			if n.Kind == xmltree.Element {
				s.elems = append(s.elems, algebra.Item{ID: n.ID, Node: n})
			}
			return true
		})
		s.elemsOK = true
	}
	return s.elems
}

// isHidden reports whether n is the root of a hidden subtree.
func (s *Store) isHidden(n *xmltree.Node) bool {
	_, found := slices.BinarySearch(s.hidden, n.ID.Key())
	return found
}

// wordItems serves R_{~word} from the inverted index, building the entry by
// one scan of the text relation on a cold access. The cold build holds the
// write lock so concurrent readers build an entry once.
func (s *Store) wordItems(word string) []algebra.Item {
	s.mu.RLock()
	out, ok := s.wordIdx[word]
	s.mu.RUnlock()
	if ok {
		s.wordHits.Inc()
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if out, ok := s.wordIdx[word]; ok {
		s.wordHits.Inc()
		return out
	}
	s.scanCount.Inc()
	text := s.items(xmltree.TextLabel)
	s.scanItems.Add(int64(len(text)))
	for _, it := range text {
		if it.Node.MatchesWord(word) {
			out = append(out, it)
		}
	}
	if s.wordIdx == nil {
		s.wordIdx = make(map[string][]algebra.Item)
	}
	s.wordIdx[word] = out
	s.wordBuilds.Inc()
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

// Changed tells the store that the document has mutated: replaced are the
// nodes the mutation put copies in place of, roots the subtrees it inserted
// or detached. The canonical relations need nothing — the mutators have
// patched the index they are read from — but the derived ones may have gone
// stale: R_* when an element entered, left or was replaced by a copy, the
// word index when a text node entered or left. Those are dropped.
func (s *Store) Changed(replaced, roots []*xmltree.Node) {
	elems, text := len(replaced) > 0, false
	for _, r := range roots {
		xmltree.Walk(r, func(n *xmltree.Node) bool {
			elems = elems || n.Kind == xmltree.Element
			text = text || n.Kind == xmltree.Text
			return !(elems && text)
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if elems {
		s.elems, s.elemsOK = nil, false
	}
	if text {
		s.wordIdx = nil
	}
}

// Hide hides the subtrees at roots from every read until the next Hide,
// which replaces them; Hide(nil) shows the whole document again. The
// derived relations are dropped both times. Like a mutation, it must not
// run while another goroutine reads the store.
func (s *Store) Hide(roots []*xmltree.Node) {
	var keys []string
	for _, r := range roots {
		keys = append(keys, r.ID.Key())
	}
	slices.Sort(keys)
	s.hidden = keys
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elems, s.elemsOK, s.wordIdx = nil, false, nil
}

// Labels returns all labels with a non-empty canonical relation, sorted.
// It walks the document: the index answers for a label, not which there
// are.
func (s *Store) Labels() []string {
	seen := map[string]bool{}
	xmltree.Walk(s.doc.Root, func(n *xmltree.Node) bool {
		if s.isHidden(n) {
			return false
		}
		seen[n.Label()] = true
		return true
	})
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
