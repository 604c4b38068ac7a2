package xmltree

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestNodeIs64Bytes pins the node's layout: Kind, the label's code and the
// publication stamp share one word, and the node fills the 64-byte size
// class. One more field puts it in the 80-byte class, 16 B more for every
// node of every tenant.
func TestNodeIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 64 {
		t.Fatalf("a Node is %d bytes; it must stay in the 64-byte size class (the next is 80, 16 B more per node)", got)
	}
}

// TestParsedLabelsAreInterned: the parsers name every element and attribute
// label by its dewey label table code, so a label is one string however many
// nodes — in however many documents and forests — carry it.
func TestParsedLabelsAreInterned(t *testing.T) {
	d, err := ParseString(`<a><b x="1"/><b x="2"><b/></b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := ParseForest(`<b x="3"/><b/>`)
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, nodes ...*Node) {
		t.Helper()
		for _, n := range nodes {
			if n.Label() != label || unsafe.StringData(n.Label()) != unsafe.StringData(nodes[0].Label()) {
				t.Fatalf("%d nodes labeled %q do not share one string", len(nodes), label)
			}
			if n.code == 0 || n.code != nodes[0].code {
				t.Fatalf("%d nodes labeled %q do not share one code", len(nodes), label)
			}
		}
	}
	b1, b2 := d.Root.Children[0], d.Root.Children[1]
	same("b", b1, b2, b2.Children[1], forest[0], forest[1])
	same("@x", b1.Children[0], b2.Children[0], forest[0].Children[0])
	if got := b1.ID.Label(); unsafe.StringData(got) != unsafe.StringData(b1.Label()) {
		t.Fatal("an ID's label is not the table's string")
	}
}

// TestLabelTableUnderConcurrentParses (run it under -race): parsers hand the
// table fresh labels, many of them the same ones at once, while readers
// decode the labels of IDs built earlier. Every reader sees what it built,
// every parser a tree whose IDs carry its labels, and the same label one
// code in every parser's keys.
func TestLabelTableUnderConcurrentParses(t *testing.T) {
	base, err := ParseString(`<site><people><person id="p1"><name>x</name></person></people></site>`)
	if err != nil {
		t.Fatal(err)
	}
	var existing []*Node
	Walk(base.Root, func(n *Node) bool {
		existing = append(existing, n)
		return true
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var parsed []*Document
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				var b strings.Builder
				b.WriteString("<root>")
				for i := 0; i < 12; i++ {
					// Overlapping: goroutines g and g+1 share half their labels.
					fmt.Fprintf(&b, `<fresh%d_%d a%d="v"/>`, round, (g+i)/2, i%3)
				}
				b.WriteString("</root>")
				d, err := ParseString(b.String())
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				parsed = append(parsed, d)
				mu.Unlock()
				for _, c := range d.Root.Children {
					if c.ID.Label() != c.Label() || c.Children[0].ID.Label() != c.Children[0].Label() {
						errs <- fmt.Errorf("%v reads back %q, built as %q", c.ID, c.ID.Label(), c.Label())
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 256)
			for round := 0; round < 2000; round++ {
				n := existing[round%len(existing)]
				if n.ID.Label() != n.Label() {
					errs <- fmt.Errorf("%v reads back %q, built as %q", n.ID, n.ID.Label(), n.Label())
					return
				}
				if buf = n.ID.AppendString(buf[:0]); !strings.Contains(string(buf), n.Label()) {
					errs <- fmt.Errorf("%v renders as %q", n.ID, buf)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One label, one code: a key rebuilt now, from each node's label and
	// ordinal, is the key its parser built, whichever parser met the label
	// first.
	for _, d := range parsed {
		for _, c := range d.Root.Children {
			if rebuilt := d.Root.ID.Child(c.Label(), c.ID.Step(1).Ord); !rebuilt.Equal(c.ID) {
				t.Fatalf("%v was built with a key %q, rebuilt with %q", c.ID, c.ID.Key(), rebuilt.Key())
			}
		}
	}
}
