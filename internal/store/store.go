// Package store implements the storage layer: per-label canonical relations
// R_a sorted in document order, materialized view row stores, lattice-node
// (snowcap) materializations, and a compact binary snapshot format. It
// plays the role BerkeleyDB played in the paper's ViP2P prototype.
package store

import (
	"sort"
	"strings"
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Store indexes one document: it maintains the virtual canonical relation
// R_a of every label a (the list of (ID,val,cont) tuples of a-labeled
// nodes, in document order) as a sorted slice of items, plus two derived
// relations built on first request and dropped by the mutations that would
// change them: the list of all element nodes for wildcard pattern nodes,
// and an inverted word index serving "~word" relations without rescanning
// the text relation on every access.
//
// Concurrency: a Store supports any number of concurrent readers (Items,
// Count, Inputs, Labels) alongside a single mutating writer (AddSubtrees,
// RemoveSubtrees, AddNode, RemoveNode). Mutations never modify a
// previously handed-out slice — merges and filters build fresh backing
// arrays — so a reader that retained a slice across a mutation keeps
// seeing exactly the items it was given (the snapshot read path and
// mid-propagation delta inputs depend on this). mu makes the map and
// slice-header swaps themselves safe, and keeps word-index invalidation
// atomic with the relation update it reacts to.
type Store struct {
	doc *xmltree.Document

	// mu guards rels, elems and wordIdx. Readers take RLock for the brief
	// map/header lookup only; the slices behind the headers are immutable
	// once published, so no lock is held while consumers iterate them.
	mu   sync.RWMutex
	rels map[string][]algebra.Item

	// elems caches the "*" relation: every element, in document order. Like
	// wordIdx it is built on first access and dropped — under the same
	// critical section — whenever an element enters or leaves, rather than
	// merged on every mutation for the rare pattern that has a wildcard.
	elems   []algebra.Item
	elemsOK bool

	// wordIdx caches, per word, the document-ordered text items containing
	// it. Entries are built on first access and the whole index is dropped
	// whenever a text node enters or leaves the canonical relations (word
	// membership only ever changes through node insertion/removal — value
	// replacement expands to delete+insert). Dropped under the SAME mu
	// critical section that updates the text relation: invalidating after
	// releasing the lock would leave a window in which a concurrent
	// "~word" reader could be served (or could cache) an index entry that
	// predates the mutation.
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

// New builds the canonical relations of doc.
func New(doc *xmltree.Document) *Store {
	s := &Store{doc: doc, rels: make(map[string][]algebra.Item)}
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		s.rels[n.Label] = append(s.rels[n.Label], algebra.Item{ID: n.ID, Node: n})
		return true
	})
	// Document walk is preorder, so relations are born sorted.
	return s
}

// Doc returns the indexed document.
func (s *Store) Doc() *xmltree.Document { return s.doc }

// Items returns the canonical relation for a pattern label: "*" yields all
// elements, "@name" attribute nodes, "#text" text nodes, "~word" the text
// nodes containing that word, anything else the elements with that label.
// Word relations are served from the inverted word index; after the first
// access for a word (and until the next mutation of a text node) no scan of
// the text relation occurs. The returned slice is immutable: callers must
// not modify it, and the store never will — a mutation publishes a fresh
// slice instead, so retaining the result across mutations is safe.
func (s *Store) Items(label string) []algebra.Item {
	if word, isWord := strings.CutPrefix(label, "~"); isWord {
		return s.wordItems(word)
	}
	s.scanCount.Inc()
	if label == "*" {
		out := s.elemItems()
		s.scanItems.Add(int64(len(out)))
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scanItems.Add(int64(len(s.rels[label])))
	return s.rels[label]
}

// Count returns |R_label| without scanning: word labels are a length lookup
// on the inverted index (building its entry on a cold first access), every
// other label a length lookup on its relation.
func (s *Store) Count(label string) int {
	if word, isWord := strings.CutPrefix(label, "~"); isWord {
		return len(s.wordItems(word))
	}
	if label == "*" {
		return len(s.elemItems())
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rels[label])
}

// elemItems serves R_* from its cache, building it on a cold access by
// merging the element relations. As in wordItems the build holds the write
// lock, so it reads settled relations and cannot publish a list that a
// concurrent mutation has already invalidated.
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
		for label, items := range s.rels {
			if isElementLabel(label) {
				s.elems = append(s.elems, items...)
			}
		}
		sortItems(s.elems)
		s.elemsOK = true
	}
	return s.elems
}

// wordItems serves R_{~word} from the inverted index, building the entry by
// one scan of the text relation on a cold access. The cold build holds the
// write lock so it reads a settled text relation and can never publish an
// entry that a concurrent mutation has already invalidated.
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
	s.scanItems.Add(int64(len(s.rels[xmltree.TextLabel])))
	for _, it := range s.rels[xmltree.TextLabel] {
		if it.Node != nil && it.Node.MatchesWord(word) {
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
	for i, n := range p.Nodes {
		in[i] = algebra.Filter(s.Items(n.Label), n, s.doc)
	}
	in[0] = algebra.FilterRootAnchor(p, in[0])
	return in
}

// AddSubtree registers every node of a freshly inserted subtree in the
// canonical relations, preserving document order.
func (s *Store) AddSubtree(n *xmltree.Node) {
	s.AddSubtrees([]*xmltree.Node{n})
}

// AddSubtrees registers many freshly inserted subtrees at once: new items
// are grouped per label across ALL roots, sorted, and merged into each
// touched relation exactly once — the batched path statement-level inserts
// rely on (a statement can add thousands of subtrees).
func (s *Store) AddSubtrees(roots []*xmltree.Node) {
	if len(roots) == 0 {
		return
	}
	byLabel := map[string][]algebra.Item{}
	for _, n := range roots {
		xmltree.Walk(n, func(m *xmltree.Node) bool {
			byLabel[m.Label] = append(byLabel[m.Label], algebra.Item{ID: m.ID, Node: m})
			return true
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for label, items := range byLabel {
		sortItems(items)
		s.rels[label] = mergeSorted(s.rels[label], items)
		s.invalidate(label)
	}
}

// isElementLabel tells an element's label from "@name" and "#text".
func isElementLabel(label string) bool {
	return label != xmltree.TextLabel && !strings.HasPrefix(label, "@")
}

// invalidate drops the derived relation that a change to R_label makes
// stale. Callers hold mu.
func (s *Store) invalidate(label string) {
	switch {
	case label == xmltree.TextLabel:
		s.wordIdx = nil
	case isElementLabel(label):
		s.elems, s.elemsOK = nil, false
	}
}

func sortItems(items []algebra.Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].ID.Compare(items[j].ID) < 0 })
}

// mergeSorted merges two document-ordered item lists. The merge gallops:
// instead of comparing element by element, it binary-searches (on the cached
// ID keys) for the splice point of each run of b inside a and moves whole
// runs with copy. Statement-level inserts put all new items of a label under
// a handful of parents, so runs are long and the cost is dominated by two
// memmoves rather than |a| comparisons.
func mergeSorted(a, b []algebra.Item) []algebra.Item {
	if len(b) == 0 {
		return a
	}
	out := make([]algebra.Item, 0, len(a)+len(b))
	i := 0
	for j := 0; j < len(b); {
		// Everything in a strictly before b[j] (ties keep a first, matching
		// the stable element-wise merge).
		k := i + sort.Search(len(a)-i, func(x int) bool { return a[i+x].ID.Compare(b[j].ID) > 0 })
		out = append(out, a[i:k]...)
		i = k
		// The run of b that fits before a[i].
		r := j + 1
		for r < len(b) && (i >= len(a) || b[r].ID.Compare(a[i].ID) < 0) {
			r++
		}
		out = append(out, b[j:r]...)
		j = r
	}
	return append(out, a[i:]...)
}

// AddNode registers exactly one node in the canonical relations, ignoring
// its subtree — the node-at-a-time path IVMA maintains. The item points at
// the live node, so σ predicates evaluate against real values.
func (s *Store) AddNode(n *xmltree.Node) {
	it := []algebra.Item{{ID: n.ID, Node: n}}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rels[n.Label] = mergeSorted(s.rels[n.Label], it)
	s.invalidate(n.Label)
}

// RemoveNode drops exactly one node from the canonical relations, leaving
// its subtree's entries to their own removals.
func (s *Store) RemoveNode(n *xmltree.Node) {
	gone := map[string]bool{n.ID.Key(): true}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rels[n.Label] = filterOut(s.rels[n.Label], gone)
	s.invalidate(n.Label)
}

// RemoveSubtree drops every node of a detached subtree from the canonical
// relations, filtering each touched relation in one pass.
func (s *Store) RemoveSubtree(n *xmltree.Node) {
	s.RemoveSubtrees([]*xmltree.Node{n})
}

// RemoveSubtrees drops every node of many detached subtrees at once: gone
// keys are collected across all roots first, so each touched relation is
// filtered exactly once regardless of how many subtrees were deleted.
func (s *Store) RemoveSubtrees(roots []*xmltree.Node) {
	if len(roots) == 0 {
		return
	}
	gone := map[string]map[string]bool{} // label -> ID keys
	for _, n := range roots {
		xmltree.Walk(n, func(m *xmltree.Node) bool {
			set := gone[m.Label]
			if set == nil {
				set = map[string]bool{}
				gone[m.Label] = set
			}
			set[m.ID.Key()] = true
			return true
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for label, set := range gone {
		s.rels[label] = filterOut(s.rels[label], set)
		s.invalidate(label)
	}
}

// filterOut returns items minus the gone keys. It must NOT compact the
// input in place: Items() hands the backing array out by reference, so
// previously returned slices (delta inputs, Mat fills, concurrent readers
// under parallel propagation) have to keep seeing their original contents.
// When nothing is removed the input is returned as is; otherwise the
// survivors are copied into a fresh slice.
func filterOut(items []algebra.Item, gone map[string]bool) []algebra.Item {
	first := -1
	for i, it := range items {
		if gone[it.ID.Key()] {
			first = i
			break
		}
	}
	if first < 0 {
		return items
	}
	out := make([]algebra.Item, first, len(items)-1)
	copy(out, items[:first])
	for _, it := range items[first+1:] {
		if !gone[it.ID.Key()] {
			out = append(out, it)
		}
	}
	return out
}

// Labels returns all labels with a non-empty canonical relation.
func (s *Store) Labels() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.rels))
	for l, items := range s.rels {
		if len(items) > 0 {
			out = append(out, l)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}
