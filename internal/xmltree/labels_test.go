package xmltree

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLabeledIndex pins the label index's contract: document order, label
// conventions (plain, "@name", "#text"), a shared empty answer for absent
// labels, and upkeep by every structural mutator.
func TestLabeledIndex(t *testing.T) {
	d, err := ParseString(`<r><a id="1"><b>x</b></a><b/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	as := d.Labeled("a")
	if len(as) != 2 {
		t.Fatalf("Labeled(a) = %d nodes, want 2", len(as))
	}
	if as[0].ID().Compare(as[1].ID()) >= 0 {
		t.Fatal("Labeled(a) not in document order")
	}
	if n := d.Labeled("b"); len(n) != 2 {
		t.Fatalf("Labeled(b) = %d nodes, want 2", len(n))
	}
	if n := d.Labeled("@id"); len(n) != 1 || n[0].Kind != Attribute {
		t.Fatalf("Labeled(@id) = %v, want one attribute", n)
	}
	if n := d.Labeled(TextLabel); len(n) != 1 || n[0].Value() != "x" {
		t.Fatalf("Labeled(#text) = %v, want one text node", n)
	}
	if n := d.Labeled("zzz"); len(n) != 0 {
		t.Fatalf("Labeled(zzz) = %d nodes, want 0", len(n))
	}
	// Finding a list, present or absent, allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		if d.LabeledChunks("a").Len() != 2 || d.LabeledChunks("zzz") != nil {
			t.Fatal("LabeledChunks disagrees with Labeled")
		}
	}); allocs != 0 {
		t.Fatalf("LabeledChunks allocates %v times a call", allocs)
	}

	// Insertion: the new subtree's labels appear.
	tmpl, err := ParseString(`<a><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyInsert(d.Root, tmpl.Root.Clone()); err != nil {
		t.Fatal(err)
	}
	if n := d.Labeled("a"); len(n) != 3 {
		t.Fatalf("after insert: Labeled(a) = %d nodes, want 3", len(n))
	}
	if n := d.Labeled("c"); len(n) != 1 {
		t.Fatalf("after insert: Labeled(c) = %d nodes, want 1", len(n))
	}

	// Deletion: the removed subtree's labels disappear.
	if _, err := d.ApplyDelete(as[0]); err != nil { // <a id="1"><b>x</b></a>
		t.Fatal(err)
	}
	if n := d.Labeled("a"); len(n) != 2 {
		t.Fatalf("after delete: Labeled(a) = %d nodes, want 2", len(n))
	}
	if n := d.Labeled("@id"); len(n) != 0 {
		t.Fatalf("after delete: Labeled(@id) = %d nodes, want 0", len(n))
	}

	// Batch deletion too.
	bs := d.Labeled("b")
	if _, _, err := d.ApplyDeleteBatch(bs); err != nil {
		t.Fatal(err)
	}
	if n := d.Labeled("b"); len(n) != 0 {
		t.Fatalf("after batch delete: Labeled(b) = %d nodes, want 0", len(n))
	}

	// A snapshot builds its own index over its own nodes.
	snap := d.Snapshot()
	for _, n := range snap.Labeled("a") {
		if snap.NodeByID(n.ID()) != n {
			t.Fatal("snapshot index points at foreign nodes")
		}
	}
}

// TestLabeledConcurrent exercises the build-once race: many goroutines ask
// for labels of a fresh document at once, and then of the epochs a writer
// publishes while it mutates, each list against a walk of its epoch — the
// readers walking on epochs the writer has left, recording what they asked
// for, while the writer indexes it (run with -race).
func TestLabeledConcurrent(t *testing.T) {
	d, err := ParseString(`<r><a/><b/><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if len(d.Labeled("a")) != 2 {
					panic("wrong index answer")
				}
			}
		}()
	}
	wg.Wait()

	var epoch atomic.Pointer[Document]
	epoch.Store(d.Snapshot())
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				img := epoch.Load()
				for _, label := range []string{"a", "b", "c", TextLabel} {
					var walked []*Node
					Walk(img.Root, func(n *Node) bool {
						if n.Label() == label {
							walked = append(walked, n)
						}
						return true
					})
					if got := img.Labeled(label); !slices.Equal(got, walked) {
						t.Errorf("Labeled(%s) on an epoch: %d nodes, a walk %d", label, len(got), len(walked))
						return
					}
				}
			}
		}()
	}
	tmpl, err := ParseString(`<c>x</c>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if i%3 == 2 {
			if _, err := d.ApplyDelete(d.Labeled("c")[0]); err != nil {
				t.Fatal(err)
			}
		} else if _, err := d.ApplyInsert(d.Root, tmpl.Root); err != nil {
			t.Fatal(err)
		}
		epoch.Store(d.Snapshot())
	}
	close(done)
	wg.Wait()
}
