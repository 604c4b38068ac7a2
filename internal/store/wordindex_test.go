package store

import (
	"sync"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/xmltree"
)

const wordDoc = `<site><a><text>gold ring</text></a><b><text>silver coin</text></b><c><text>plain gold bar</text></c></site>`

func newWordStore(t *testing.T) (*Store, *xmltree.Document, *obs.Metrics) {
	t.Helper()
	doc, err := xmltree.ParseString(wordDoc)
	if err != nil {
		t.Fatal(err)
	}
	s := New(doc)
	m := obs.New()
	s.SetMetrics(m)
	return s, doc, m
}

// TestWordItemsServedFromIndex asserts the tentpole contract: a cache-hit
// Items("~word") call must not rescan the text relation, observable through
// the store.scan.items counter staying flat while store.wordidx.hits grows.
func TestWordItemsServedFromIndex(t *testing.T) {
	s, _, m := newWordStore(t)
	scans := m.Counter("store.scan.items")
	hits := m.Counter("store.wordidx.hits")
	builds := m.Counter("store.wordidx.builds")

	first := s.Items("~gold")
	if len(first) != 2 {
		t.Fatalf("Items(~gold) = %d items, want 2", len(first))
	}
	if builds.Value() != 1 {
		t.Fatalf("builds = %d after cold access, want 1", builds.Value())
	}
	cold := scans.Value()
	if cold == 0 {
		t.Fatal("cold access must scan the text relation")
	}

	for i := 0; i < 3; i++ {
		if got := s.Items("~gold"); len(got) != 2 {
			t.Fatalf("Items(~gold) = %d items on hit, want 2", len(got))
		}
	}
	if s.Count("~gold") != 2 {
		t.Fatalf("Count(~gold) = %d, want 2", s.Count("~gold"))
	}
	if scans.Value() != cold {
		t.Fatalf("scan.items moved on cache hits: %d -> %d", cold, scans.Value())
	}
	if hits.Value() != 4 {
		t.Fatalf("wordidx.hits = %d, want 4", hits.Value())
	}
	if builds.Value() != 1 {
		t.Fatalf("builds = %d after hits, want 1", builds.Value())
	}
}

// TestWordIndexInvalidation checks that text-node mutations through every
// store entry point drop the index so word relations stay correct.
func TestWordIndexInvalidation(t *testing.T) {
	s, doc, m := newWordStore(t)
	builds := m.Counter("store.wordidx.builds")

	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) = %d, want 2", n)
	}

	// Insert a subtree containing a matching text node.
	parent := doc.Root.Children[1] // <b>
	sub, err := xmltree.ParseString(`<d><text>more gold dust</text></d>`)
	if err != nil {
		t.Fatal(err)
	}
	attached, err := doc.ApplyInsert(parent, sub.Root)
	if err != nil {
		t.Fatal(err)
	}
	s.AddSubtree(attached)
	if n := s.Count("~gold"); n != 3 {
		t.Fatalf("Count(~gold) after insert = %d, want 3", n)
	}
	if builds.Value() != 2 {
		t.Fatalf("builds = %d after insert+recount, want 2", builds.Value())
	}

	// Delete it again.
	if _, err := doc.ApplyDelete(attached); err != nil {
		t.Fatal(err)
	}
	s.RemoveSubtree(attached)
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) after delete = %d, want 2", n)
	}

	// Node-at-a-time paths (IVMA) must invalidate too.
	var textNode *xmltree.Node
	xmltree.Walk(doc.Root, func(n *xmltree.Node) bool {
		if n.Label() == xmltree.TextLabel && textNode == nil {
			textNode = n
		}
		return true
	})
	s.RemoveNode(textNode)
	if n := s.Count("~gold"); n != 1 {
		t.Fatalf("Count(~gold) after RemoveNode = %d, want 1", n)
	}
	s.AddNode(textNode)
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) after AddNode = %d, want 2", n)
	}

	// Mutations that touch no text node must keep the index warm.
	before := builds.Value()
	elemOnly, err := xmltree.ParseString(`<e><f/></e>`)
	if err != nil {
		t.Fatal(err)
	}
	attached2, err := doc.ApplyInsert(parent, elemOnly.Root)
	if err != nil {
		t.Fatal(err)
	}
	s.AddSubtree(attached2)
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) after element-only insert = %d, want 2", n)
	}
	if builds.Value() != before {
		t.Fatalf("element-only insert invalidated the word index (builds %d -> %d)", before, builds.Value())
	}
}

// TestWordIndexConcurrentWithMutations drives "~word" queries from several
// goroutines while the writer inserts and deletes text-bearing subtrees —
// the serving-layer scenario where concurrent readers hit wordItems while
// the apply loop mutates the canonical relations. Run under -race this
// catches two historical windows: the unguarded read of the text relation
// during a cold index build, and the invalidation that used to happen
// AFTER the relation update left the lock, letting a reader cache (and be
// served) an index entry that predated the mutation.
//
// Every answer must be internally consistent: each returned item's node
// really contains the word, and Count must agree with some state the store
// actually passed through (2 matches before an insert, 3 after, never
// anything else).
func TestWordIndexConcurrentWithMutations(t *testing.T) {
	s, doc, _ := newWordStore(t)
	parent := doc.Root.Children[1] // <b>

	stop := make(chan struct{})
	errc := make(chan string, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				items := s.Items("~gold")
				for _, it := range items {
					if it.Node == nil || !it.Node.MatchesWord("gold") {
						select {
						case errc <- "Items(~gold) returned a non-matching item":
						default:
						}
						return
					}
				}
				if n := s.Count("~gold"); n != 2 && n != 3 {
					select {
					case errc <- "Count(~gold) observed a state the store never held":
					default:
					}
					return
				}
			}
		}()
	}

	for i := 0; i < 150; i++ {
		sub, err := xmltree.ParseString(`<d><text>more gold dust</text></d>`)
		if err != nil {
			t.Fatal(err)
		}
		attached, err := doc.ApplyInsert(parent, sub.Root)
		if err != nil {
			t.Fatal(err)
		}
		s.AddSubtree(attached)
		if _, err := doc.ApplyDelete(attached); err != nil {
			t.Fatal(err)
		}
		s.RemoveSubtree(attached)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) = %d after balanced churn, want 2", n)
	}
}
