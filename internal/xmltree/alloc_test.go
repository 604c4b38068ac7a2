package xmltree_test

import (
	"runtime"
	"testing"

	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// pairBytes returns what a bidder with two text nodes inserted under one
// open_auction of an XMark document of the given size and deleted again, an
// epoch after each, allocates: with the label index built (indexed), or
// without it, where patchLabels has nothing to patch and what is left is
// the spine's copy-on-write.
func pairBytes(t *testing.T, size int, indexed bool) int64 {
	t.Helper()
	src := xmark.Generate(xmark.Config{TargetBytes: size, Seed: 1})
	forest, err := xmltree.ParseString(`<bidder><date>03/03/2021</date><increase>3.00</increase></bidder>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var target *xmltree.Node
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		if target == nil && n.Label() == "open_auction" {
			target = n
		}
		return target == nil
	})
	if indexed {
		if texts := d.LabeledChunks(xmltree.TextLabel).Len(); texts < size/50 {
			t.Fatalf("fixture: %d text nodes", texts)
		}
	}
	d.Snapshot()
	pair := func() {
		b, err := d.ApplyInsert(target, forest.Root)
		if err != nil {
			t.Fatal(err)
		}
		d.Snapshot()
		if _, err := d.ApplyDelete(b); err != nil {
			t.Fatal(err)
		}
		d.Snapshot()
	}
	pair() // the spine's child lists get their room
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair()
	runtime.ReadMemStats(&after)
	if indexed {
		if got := d.LabeledChunks("bidder").Len(); got == 0 || d.Labeled("bidder")[0] != d.NodeByID(d.Labeled("bidder")[0].ID) {
			t.Fatal("the patched index does not hold the document's own nodes")
		}
	}
	if err := xmltree.CheckKids(d.Root); err != nil {
		t.Fatal(err)
	}
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// labelPatchBytes returns what keeping the label index in step costs
// pairBytes' pair: its bytes with the index built less its bytes without.
func labelPatchBytes(t *testing.T, size int) int64 {
	t.Helper()
	bare, indexed := pairBytes(t, size, false), pairBytes(t, size, true)
	t.Logf("%d KB of XMark, insert + delete + two epochs: %d B without the index, %d B with it", size>>10, bare, indexed)
	return indexed - bare
}

// TestLabelPatchCopiesAPathNotAList holds what keeping the label index in
// step costs a published document of 1 MB. The #text list alone is 24,770
// nodes, 193 KB; the index may copy the leaves the mutation lands in and
// the paths above them, in each list it edits and in the run of lists, not
// a list — ~8.8 KB.
func TestLabelPatchCopiesAPathNotAList(t *testing.T) {
	if cost := labelPatchBytes(t, 1<<20); cost >= 11<<10 {
		t.Errorf("patching the label index allocated %d B for a two-text-node insert and delete, budget 11 KB", cost)
	}
}

// TestLabelPatchDoesNotGrowWithTheDocument: the same pair costs the index
// what it costs at 1 MB on a 4 MB document, within 2 KB — a path is a level
// longer at most. A flat directory of 2 KB chunks made the larger #text
// list alone cost 14 KB more a pair.
func TestLabelPatchDoesNotGrowWithTheDocument(t *testing.T) {
	small, large := labelPatchBytes(t, 1<<20), labelPatchBytes(t, 4<<20)
	if large-small > 2<<10 {
		t.Errorf("the label patch costs %d B at 1 MB and %d B at 4 MB: it grows with the document", small, large)
	}
}

// TestSpineCopyDoesNotGrowWithTheDocument holds pairBytes' pair without
// the index — the spine's copies alone — to 5 KB at 1 MB, and to within
// 1 KB of that at 4 MB. open_auctions has 685 children at 1 MB and 2,774
// at 4 MB; copying its whole child list cost 13.9 KB and 50.7 KB a pair.
// Now a copy takes the parent's slice of branches and one leaf of ≤ 64
// children: 2.9 KB and 3.5 KB, the difference being that slice.
func TestSpineCopyDoesNotGrowWithTheDocument(t *testing.T) {
	small, large := pairBytes(t, 1<<20, false), pairBytes(t, 4<<20, false)
	t.Logf("the spine's copies for an insert + delete pair: %d B at 1 MB, %d B at 4 MB", small, large)
	if small > 5<<10 {
		t.Errorf("the spine's copies cost %d B at 1 MB, budget 5 KB", small)
	}
	if large-small > 1<<10 || small-large > 1<<10 {
		t.Errorf("the spine's copies cost %d B at 1 MB and %d B at 4 MB: they grow with the document", small, large)
	}
}
