// Package store implements the storage layer: per-label canonical relations
// R_a sorted in document order, materialized view row stores, lattice-node
// (snowcap) materializations, and a compact binary snapshot format. It
// plays the role BerkeleyDB played in the paper's ViP2P prototype.
package store

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
// RemoveSubtrees, AddNode, RemoveNode). The rule is lend, don't copy: a
// slice handed out by Items or Inputs is immutable from then on — the next
// mutation of that relation moves it to a fresh backing array first — so a
// reader that retained a slice across a mutation keeps seeing exactly the
// items it was given (mid-propagation delta inputs, Mat fills and parallel
// propagation depend on this). A relation whose current array has not been
// handed out is the writer's to edit: it is merged into and cut from in
// place. What a loan fixes is membership and order; which node an item's
// Node points at is the writer's to change between statements (Repoint).
// mu makes the map and slice-header swaps themselves safe, orders a
// reader's loan before the writer's next look at it, and keeps word-index
// invalidation atomic with the relation update it reacts to.
type Store struct {
	doc *xmltree.Document

	// mu guards rels, elems and wordIdx. Readers take RLock for the brief
	// map/header lookup only; a slice behind a handed-out header is
	// immutable, so no lock is held while consumers iterate it.
	mu   sync.RWMutex
	rels map[string]*relation

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

// relation is one canonical relation R_a: its items in document order, and
// whether the array behind them is out on loan. Items sets lent under
// RLock (hence the atomic: readers may race each other, never the writer);
// the writer, under Lock, moves a lent relation to a fresh array before
// changing it and edits an unlent one where it lies.
type relation struct {
	items []algebra.Item
	lent  atomic.Bool
}

// New builds the canonical relations of doc.
func New(doc *xmltree.Document) *Store {
	s := &Store{doc: doc, rels: make(map[string]*relation)}
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		r := s.rel(n.Label())
		r.items = append(r.items, algebra.Item{ID: n.ID, Node: n})
		return true
	})
	// Document walk is preorder, so relations are born sorted.
	return s
}

// rel returns the relation for label, creating it empty. Callers hold mu
// for writing (or own the store outright, as New does).
func (s *Store) rel(label string) *relation {
	r := s.rels[label]
	if r == nil {
		r = &relation{}
		s.rels[label] = r
	}
	return r
}

// items reads R_label without lending it: for callers that hold mu and let
// no reference to the array outlive the lock.
func (s *Store) items(label string) []algebra.Item {
	if r := s.rels[label]; r != nil {
		return r.items
	}
	return nil
}

// Doc returns the indexed document.
func (s *Store) Doc() *xmltree.Document { return s.doc }

// Items returns the canonical relation for a pattern label: "*" yields all
// elements, "@name" attribute nodes, "#text" text nodes, "~word" the text
// nodes containing that word, anything else the elements with that label.
// Word relations are served from the inverted word index; after the first
// access for a word (and until the next mutation of a text node) no scan of
// the text relation occurs. The returned slice is immutable: callers must
// not modify it, and the store never will — handing it out marks the
// relation lent, and a mutation of a lent relation publishes a fresh slice
// instead, so retaining the result across mutations is safe.
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
	r := s.rels[label]
	if r == nil {
		return nil
	}
	r.lent.Store(true)
	s.scanItems.Add(int64(len(r.items)))
	return r.items
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
	return len(s.items(label))
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
		for label, r := range s.rels {
			if isElementLabel(label) {
				s.elems = append(s.elems, r.items...)
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
	text := s.items(xmltree.TextLabel)
	s.scanItems.Add(int64(len(text)))
	for _, it := range text {
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
// canonical relations, lending every one of them.
func (s *Store) Inputs(p *pattern.Pattern) algebra.Inputs {
	in := make(algebra.Inputs, p.Size())
	for i := range p.Nodes {
		in[i] = s.Input(p, i)
	}
	return in
}

// Input is the σ-filtered input of pattern node i alone: one relation read,
// one relation lent.
func (s *Store) Input(p *pattern.Pattern, i int) []algebra.Item {
	n := p.Nodes[i]
	items := algebra.Filter(s.Items(n.Label), n, s.doc)
	if i == 0 {
		items = algebra.FilterRootAnchor(p, items)
	}
	return items
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
			label := m.Label()
			byLabel[label] = append(byLabel[label], algebra.Item{ID: m.ID, Node: m})
			return true
		})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for label, items := range byLabel {
		sortItems(items)
		s.rel(label).add(items)
		s.invalidate(label)
	}
}

// Repoint swaps in the nodes a mutation of a published document replaced by
// copies (xmltree's rule 2): an item reads its σ predicate, val and cont
// through Node, and the node it pointed at no longer changes. Membership is
// untouched — during insert propagation the relations still list the
// pre-update nodes, now with their post-update content. A node that is not
// (or no longer) in its relation is skipped.
//
// The pointer is swapped where the item lies, lent or not: on a
// never-published document the writer changes the node itself under the
// same borrowers, and copying R_person (30 KB at 1 MB) per statement to
// move one pointer would cost more than the mirror this replaced. Like a
// mutator, it must not run while another goroutine reads items' nodes.
func (s *Store) Repoint(nodes []*xmltree.Node) {
	if len(nodes) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range nodes {
		items, key := s.items(n.Label()), n.ID.Key()
		i := sort.Search(len(items), func(i int) bool { return items[i].ID.Key() >= key })
		if i < len(items) && items[i].ID.Key() == key {
			items[i].Node = n
		}
	}
	// Spine nodes are elements: the cached R_* holds their old pointers.
	s.elems, s.elemsOK = nil, false
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

// add merges the document-ordered items b into the relation, from the back:
// each new item's splice point is binary-searched (on the cached ID keys)
// and the old items between two splice points move as one block. Statement-
// level inserts put all new items of a label under a handful of parents, so
// the cost is a few memmoves rather than |R| comparisons. An unlent relation
// grows where it lies (amortised, like any append); a lent one is merged
// into a fresh array and the loan ends with the old one.
func (r *relation) add(b []algebra.Item) {
	a := r.items
	var dst []algebra.Item
	if r.lent.Load() {
		dst = make([]algebra.Item, len(a)+len(b))
	} else {
		dst = append(a, b...) // room; the tail is overwritten below
	}
	rest := len(a) // a[:rest] are old items not yet in place
	for j := len(b) - 1; j >= 0; j-- {
		// Everything in a up to and including b[j]'s equals stays before it
		// (ties keep a first, matching the stable element-wise merge).
		at := sort.Search(rest, func(i int) bool { return a[i].ID.Compare(b[j].ID) > 0 })
		copy(dst[at+j+1:], a[at:rest])
		dst[at+j] = b[j]
		rest = at
	}
	copy(dst, a[:rest])
	r.items = dst
	r.lent.Store(false)
}

// cut removes, for each of the sorted keys, the block of items that starts
// at the key and that match accepts — strings.HasPrefix for a whole
// subtree, equality for one node — found by binary search rather than by
// probing every item. An unlent relation is closed up where it lies; a lent
// one (Items hands the backing array out by reference, and delta inputs,
// Mat fills and readers under parallel propagation have to keep seeing
// what they were given) has its survivors copied to a fresh array. When
// nothing matches, the relation and its loan are left as they are.
func (r *relation) cut(keys []string, match func(itemKey, key string) bool) {
	a := r.items
	dst := a
	kept, from := 0, 0 // dst[:kept] is settled, a[from:] still to be sifted
	for _, key := range keys {
		lo := from + sort.Search(len(a)-from, func(i int) bool { return a[from+i].ID.Key() >= key })
		hi := lo + sort.Search(len(a)-lo, func(i int) bool { return !match(a[lo+i].ID.Key(), key) })
		if hi == lo {
			continue
		}
		if from == 0 && r.lent.Load() {
			dst = make([]algebra.Item, len(a)-(hi-lo))
		}
		kept += copy(dst[kept:], a[from:lo])
		from = hi
	}
	if from == 0 {
		return
	}
	kept += copy(dst[kept:], a[from:])
	if !r.lent.Load() {
		clear(a[kept:])
	}
	r.items = dst[:kept]
	r.lent.Store(false)
}

func keyEqual(itemKey, key string) bool { return itemKey == key }

// AddNode registers exactly one node in the canonical relations, ignoring
// its subtree — the node-at-a-time path IVMA maintains. The item points at
// the live node, so σ predicates evaluate against real values.
func (s *Store) AddNode(n *xmltree.Node) {
	it := []algebra.Item{{ID: n.ID, Node: n}}
	s.mu.Lock()
	defer s.mu.Unlock()
	label := n.Label()
	s.rel(label).add(it)
	s.invalidate(label)
}

// RemoveNode drops exactly one node from the canonical relations, leaving
// its subtree's entries to their own removals.
func (s *Store) RemoveNode(n *xmltree.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	label := n.Label()
	if r := s.rels[label]; r != nil {
		r.cut([]string{n.ID.Key()}, keyEqual)
	}
	s.invalidate(label)
}

// RemoveSubtree drops every node of a detached subtree from the canonical
// relations.
func (s *Store) RemoveSubtree(n *xmltree.Node) {
	s.RemoveSubtrees([]*xmltree.Node{n})
}

// RemoveSubtrees drops every node of many detached subtrees at once: from
// the relation of every label that occurs in them, the blocks of items
// whose key extends a root's, in one pass per relation however many
// subtrees were deleted. Going by key rather than by the subtrees' present
// members makes it immaterial whether one root lies inside another.
func (s *Store) RemoveSubtrees(roots []*xmltree.Node) {
	if len(roots) == 0 {
		return
	}
	keys := make([]string, len(roots))
	labels := map[string]bool{}
	for i, n := range roots {
		keys[i] = n.ID.Key()
		xmltree.Walk(n, func(m *xmltree.Node) bool {
			labels[m.Label()] = true
			return true
		})
	}
	slices.Sort(keys)
	s.mu.Lock()
	defer s.mu.Unlock()
	for label := range labels {
		if r := s.rels[label]; r != nil {
			r.cut(keys, strings.HasPrefix)
		}
		s.invalidate(label)
	}
}

// Labels returns all labels with a non-empty canonical relation.
func (s *Store) Labels() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.rels))
	for l, r := range s.rels {
		if len(r.items) > 0 {
			out = append(out, l)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}
