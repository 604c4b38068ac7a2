package xmltree_test

import (
	"slices"
	"testing"

	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// walkLabeled returns the nodes of d carrying label, in document order, by
// a walk of its tree: what the index's list must hold.
func walkLabeled(d *xmltree.Document, label string) []*xmltree.Node {
	var out []*xmltree.Node
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		if n.Label() == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

// requireWalked fails unless d's list for label is a walk of d's tree, node
// for node.
func requireWalked(t *testing.T, what string, d *xmltree.Document, label string) {
	t.Helper()
	if got, want := d.Labeled(label), walkLabeled(d, label); !slices.Equal(got, want) {
		t.Fatalf("%s: Labeled(%s) holds %d nodes, a walk %d, or not the same ones", what, label, len(got), len(want))
	}
}

func mustParse(t *testing.T, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// firstLabeled returns the first node of d carrying label in document order.
func firstLabeled(t *testing.T, d *xmltree.Document, label string) *xmltree.Node {
	t.Helper()
	nodes := walkLabeled(d, label)
	if len(nodes) == 0 {
		t.Fatalf("fixture: no %s", label)
	}
	return nodes[0]
}

// TestUnaskedLabelIsNeverIndexed: a tenant that has served `//bidder` and
// then the benchmark's bidder pair, an epoch after each statement, indexes
// bidder, and none of the labels the pair carries that no one asked for —
// not #text, date or xbench, whose lists the pair would otherwise copy a
// leaf and a path in.
func TestUnaskedLabelIsNeverIndexed(t *testing.T) {
	d := mustParse(t, xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1}))
	forest := mustParse(t, `<bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder>`)
	target := firstLabeled(t, d, "open_auction").ID()
	requireWalked(t, "before the pair", d, "bidder")
	d.Snapshot()
	b, err := d.ApplyInsert(d.NodeByID(target), forest.Root)
	if err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	if _, err := d.ApplyDelete(d.NodeByID(b.ID())); err != nil {
		t.Fatal(err)
	}
	d.Snapshot()
	for _, doc := range []*xmltree.Document{img, d} {
		labels := xmltree.IndexedLabels(doc)
		if !slices.Contains(labels, "bidder") {
			t.Errorf("the index lost bidder: %q", labels)
		}
		for _, l := range []string{xmltree.TextLabel, "date", "xbench"} {
			if slices.Contains(labels, l) {
				t.Errorf("the index holds %s, which no one asked for: %q", l, labels)
			}
		}
	}
	requireWalked(t, "the epoch holding the bidder", img, "bidder")
	requireWalked(t, "after the pair", d, "bidder")
}

// TestAbsentLabelDoesNotGrowTheIndex: asking the writer or an epoch for a
// label no node carries answers nil and keeps nothing — no list, and no
// wish the writer walks for at its next publication — and a node of that
// label inserted later is found.
func TestAbsentLabelDoesNotGrowTheIndex(t *testing.T) {
	d := mustParse(t, `<r><a/></r>`)
	requireWalked(t, "writer", d, "a")
	img := d.Snapshot()
	for _, doc := range []*xmltree.Document{d, img, d} {
		if doc.LabeledChunks("zzz") != nil || len(doc.Labeled("zzz")) != 0 {
			t.Fatal("an absent label has a list")
		}
		if labels := xmltree.IndexedLabels(doc); !slices.Equal(labels, []string{"a"}) {
			t.Fatalf("asking for an absent label grew the index to %q", labels)
		}
	}
	walks := xmltree.LabelWalks(d)
	if _, err := d.ApplyInsert(d.Root, mustParse(t, `<b/>`).Root); err != nil {
		t.Fatal(err)
	}
	d.Snapshot()
	if n := xmltree.LabelWalks(d) - walks; n != 0 {
		t.Fatalf("the writer walked %d times for labels no node carried", n)
	}
	if _, err := d.ApplyInsert(d.Root, mustParse(t, `<zzz/>`).Root); err != nil {
		t.Fatal(err)
	}
	requireWalked(t, "once inserted", d, "zzz")
	if len(d.Labeled("zzz")) != 1 {
		t.Fatal("the inserted zzz is not found")
	}
}

// TestEmptiedLabelStaysIndexed: when a label's last node leaves, its list
// stays indexed, empty, and reads as nil; when a node of the label comes
// back, it is patched in — no walk — and the epochs in between keep what
// they had.
func TestEmptiedLabelStaysIndexed(t *testing.T) {
	d := mustParse(t, `<r><a/><b/></r>`)
	requireWalked(t, "writer", d, "a")
	walks := xmltree.LabelWalks(d)
	img1 := d.Snapshot()
	if _, err := d.ApplyDelete(firstLabeled(t, d, "a")); err != nil {
		t.Fatal(err)
	}
	if d.LabeledChunks("a") != nil {
		t.Fatal("an emptied list reads as non-nil")
	}
	if !slices.Contains(xmltree.IndexedLabels(d), "a") {
		t.Fatal("the emptied list was dropped")
	}
	img2 := d.Snapshot()
	if img2.LabeledChunks("a") != nil {
		t.Fatal("the epoch without an a has a list of them")
	}
	if _, err := d.ApplyInsert(d.Root, mustParse(t, `<a/>`).Root); err != nil {
		t.Fatal(err)
	}
	img3 := d.Snapshot()
	requireWalked(t, "the a's return", img3, "a")
	requireWalked(t, "the epoch before the delete", img1, "a")
	if img2.LabeledChunks("a") != nil {
		t.Fatal("the return reached the epoch before it")
	}
	if n := xmltree.LabelWalks(d) - walks; n != 0 {
		t.Fatalf("the emptied label was walked for %d times", n)
	}
}

// TestReaderOnlyLabelIsIndexedOnce: a label only readers ask for, each on
// the epoch the writer has just left, is walked for once by a reader and
// once by the writer, which indexes it at its next publication — not once
// an epoch. Each round publishes, inserts or deletes a description, then
// reads the epoch's descriptions, which must be a walk of that epoch.
func TestReaderOnlyLabelIsIndexedOnce(t *testing.T) {
	d := mustParse(t, xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1}))
	forest := mustParse(t, `<description><text>bench</text></description>`)
	item := firstLabeled(t, d, "item").ID()
	walks := xmltree.LabelWalks(d)
	var added *xmltree.Node
	for i := 0; i < 100; i++ {
		img := d.Snapshot()
		var err error
		if i%2 == 0 {
			added, err = d.ApplyInsert(d.NodeByID(item), forest.Root)
		} else {
			_, err = d.ApplyDelete(d.NodeByID(added.ID()))
		}
		if err != nil {
			t.Fatal(err)
		}
		requireWalked(t, "an epoch the writer has left", img, "description")
	}
	requireWalked(t, "the writer", d, "description")
	if n := xmltree.LabelWalks(d) - walks; n > 2 {
		t.Fatalf("a label only readers asked for was walked for %d times in 100 epochs, want at most 2", n)
	}
}

// TestIndexLabelsIsOneWalk: indexing k labels at once is one walk of the
// tree, not k, and leaves each label's list as its own walk would: every
// node carrying it, in document order. A label no node carries keeps an
// empty list, so asking for it again walks nothing, as does one asked for
// twice or already indexed, and an epoch's index holds what the writer's
// did when it was frozen. A node of the absent label inserted later is
// patched into its list.
func TestIndexLabelsIsOneWalk(t *testing.T) {
	d := mustParse(t, xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1}))
	requireWalked(t, "before", d, "item")
	labels := []string{"person", "name", "@id", xmltree.TextLabel, "bidder", "increase", "open_auction", "zzz", "name", "item"}
	walks := xmltree.LabelWalks(d)
	d.IndexLabels(labels)
	if n := xmltree.LabelWalks(d) - walks; n != 1 {
		t.Fatalf("indexing %d labels took %d walks, want 1", len(labels), n)
	}
	want := []string{"#text", "@id", "bidder", "increase", "item", "name", "open_auction", "person", "zzz"}
	if got := xmltree.IndexedLabels(d); !slices.Equal(got, want) {
		t.Fatalf("index holds %q, want %q", got, want)
	}
	img := d.Snapshot()
	for _, label := range want {
		requireWalked(t, "writer", d, label)
		requireWalked(t, "epoch", img, label)
	}
	if d.LabeledChunks("zzz") != nil {
		t.Fatal("the absent label's empty list reads as a list")
	}
	d.IndexLabels(labels)
	if n := xmltree.LabelWalks(d) - walks; n != 1 {
		t.Fatalf("re-indexing walked %d more times, want 0", n-1)
	}
	if _, err := d.ApplyInsert(d.Root, mustParse(t, `<zzz/>`).Root); err != nil {
		t.Fatal(err)
	}
	if len(d.Labeled("zzz")) != 1 || len(img.Labeled("zzz")) != 0 {
		t.Fatal("the inserted zzz is not patched into the writer's list alone")
	}
	if n := xmltree.LabelWalks(d) - walks; n != 1 {
		t.Fatalf("reading the absent label walked %d more times, want 0", n-1)
	}
}
