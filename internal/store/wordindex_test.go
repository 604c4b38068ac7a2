package store

import (
	"fmt"
	"sync"
	"testing"

	"xivm/internal/algebra"
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

// TestWordIndexInvalidation checks that text nodes entering or leaving —
// by a mutation the store is told of, or by Hide — drop the index so word
// relations stay correct, and that nothing else does.
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
	s.Changed(nil, []*xmltree.Node{attached})
	if n := s.Count("~gold"); n != 3 {
		t.Fatalf("Count(~gold) after insert = %d, want 3", n)
	}
	if builds.Value() != 2 {
		t.Fatalf("builds = %d after insert+recount, want 2", builds.Value())
	}

	// Hidden (an insertion propagating), it is out of the index again.
	s.Hide([]*xmltree.Node{attached})
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) with the insert hidden = %d, want 2", n)
	}
	s.Hide(nil)
	if n := s.Count("~gold"); n != 3 {
		t.Fatalf("Count(~gold) after Hide(nil) = %d, want 3", n)
	}

	// Delete it again.
	if _, err := doc.ApplyDelete(attached); err != nil {
		t.Fatal(err)
	}
	s.Changed(nil, []*xmltree.Node{attached})
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) after delete = %d, want 2", n)
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
	s.Changed(nil, []*xmltree.Node{attached2})
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) after element-only insert = %d, want 2", n)
	}
	if builds.Value() != before {
		t.Fatalf("element-only insert invalidated the word index (builds %d -> %d)", before, builds.Value())
	}
}

// TestWordIndexConcurrentWithMutations drives "~word" queries from several
// goroutines at once, cold entries included — parallel propagation over a
// view with a word leaf — and between those rounds inserts and deletes a
// text-bearing subtree while the readers go over the entries they were
// served. Run under -race this catches a cold build that is not serialized,
// and an entry that shares memory with what the mutation edits.
//
// Every answer must be consistent with the state the document is in: each
// returned item's node really contains the word, and Count is 2 matches
// before an insert, 3 after.
func TestWordIndexConcurrentWithMutations(t *testing.T) {
	s, doc, _ := newWordStore(t)
	parent := doc.Root.Children[1] // <b>

	var attached *xmltree.Node
	for i := 0; i < 150; i++ {
		want := 2
		if attached != nil {
			want = 3
		}
		const readers = 4
		var wg sync.WaitGroup
		held := make([][]algebra.Item, readers)
		errc := make(chan string, 2*readers)
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				held[r] = s.Items("~gold")
				if n := s.Count("~gold"); n != want || len(held[r]) != want {
					errc <- fmt.Sprintf("round %d: Items(~gold) has %d items, Count %d, want %d", i, len(held[r]), n, want)
				}
			}()
		}
		wg.Wait()
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, it := range held[r] {
					if !it.Node.MatchesWord("gold") {
						errc <- "Items(~gold) returned a non-matching item"
						return
					}
				}
			}()
		}
		if attached == nil {
			sub, err := xmltree.ParseString(`<d><text>more gold dust</text></d>`)
			if err != nil {
				t.Fatal(err)
			}
			if attached, err = doc.ApplyInsert(parent, sub.Root); err != nil {
				t.Fatal(err)
			}
			s.Changed(nil, []*xmltree.Node{attached})
		} else {
			if _, err := doc.ApplyDelete(attached); err != nil {
				t.Fatal(err)
			}
			s.Changed(nil, []*xmltree.Node{attached})
			attached = nil
		}
		wg.Wait()
		select {
		case msg := <-errc:
			t.Fatal(msg)
		default:
		}
	}
	if n := s.Count("~gold"); n != 2 {
		t.Fatalf("Count(~gold) = %d after balanced churn, want 2", n)
	}
}
