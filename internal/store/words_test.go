package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/xmltree"
)

const wordDoc = `<site><a><text>gold ring</text></a><b><text>silver coin</text></b><c><text>plain gold bar</text></c></site>`

func newWordStore(t *testing.T) (*Store, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(wordDoc)
	if err != nil {
		t.Fatal(err)
	}
	return New(doc), doc
}

// TestDerivedRelationsFollowTheTree: R_* and R_~word are read from the tree
// as it is now, whatever was read before. Each step reads both first, then
// mutates the document through its own mutators alone, and requires every
// relation to be what a walk of the document collects — by ID, order and
// node identity — less the hidden subtrees: after an insert of a matching
// text node, while it is hidden, once it is shown again, after its delete,
// and after an insert that brings no text.
func TestDerivedRelationsFollowTheTree(t *testing.T) {
	s, doc := newWordStore(t)
	parent := doc.Root.ElementChildren()[1] // <b>
	warm := func() {
		s.Items("*")
		s.Items("~gold")
	}
	check := func(step string, gold int, hidden ...*xmltree.Node) {
		t.Helper()
		for _, l := range []string{"*", "~gold", "#text", "text"} {
			var want []algebra.Item
			for _, it := range algebra.DocItems(doc, l) {
				if !slices.ContainsFunc(hidden, func(r *xmltree.Node) bool { return strings.HasPrefix(it.ID.Key(), r.ID().Key()) }) {
					want = append(want, it)
				}
			}
			if got := s.Items(l); !slices.Equal(got, want) {
				t.Fatalf("%s: R_%s holds %d items, a walk of the document %d (or they differ by ID, order or node)", step, l, len(got), len(want))
			}
		}
		if n := len(s.Items("~gold")); n != gold {
			t.Fatalf("%s: R_~gold holds %d items, want %d", step, n, gold)
		}
	}
	check("parsed", 2)

	// Insert a subtree containing a matching text node.
	sub, err := xmltree.ParseString(`<d><text>more gold dust</text></d>`)
	if err != nil {
		t.Fatal(err)
	}
	warm()
	attached, err := doc.ApplyInsert(parent, sub.Root)
	if err != nil {
		t.Fatal(err)
	}
	check("insert", 3)

	// Hidden (an insertion propagating), it is out of every relation.
	warm()
	s.Hide([]*xmltree.Node{attached})
	check("hidden", 2, attached)
	warm()
	s.Hide(nil)
	check("shown", 3)

	// Delete it again.
	warm()
	if _, err := doc.ApplyDelete(attached); err != nil {
		t.Fatal(err)
	}
	check("delete", 2)

	// An insert that brings no text node.
	elemOnly, err := xmltree.ParseString(`<e><f/></e>`)
	if err != nil {
		t.Fatal(err)
	}
	warm()
	if _, err := doc.ApplyInsert(parent, elemOnly.Root); err != nil {
		t.Fatal(err)
	}
	check("element-only insert", 2)
}

// TestWordIndexConcurrentWithMutations drives "~word" reads from several
// goroutines at once, and between those rounds inserts and deletes a
// text-bearing subtree while the readers go over the slices they were
// served. Run under -race this catches a read that writes state another
// reader reads, and a served slice that shares memory with what the
// mutation edits.
//
// Every answer must be consistent with the state the document is in: each
// returned item's node really contains the word, and there are 2 matches
// before an insert, 3 after.
func TestWordIndexConcurrentWithMutations(t *testing.T) {
	s, doc := newWordStore(t)
	parent := doc.Root.ElementChildren()[1] // <b>

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
				if n := len(s.Items("~gold")); n != want || len(held[r]) != want {
					errc <- fmt.Sprintf("round %d: Items(~gold) has %d items, then %d, want %d", i, len(held[r]), n, want)
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
		} else {
			if _, err := doc.ApplyDelete(attached); err != nil {
				t.Fatal(err)
			}
			attached = nil
		}
		wg.Wait()
		select {
		case msg := <-errc:
			t.Fatal(msg)
		default:
		}
	}
	if n := len(s.Items("~gold")); n != 2 {
		t.Fatalf("|R_~gold| = %d after balanced churn, want 2", n)
	}
}
