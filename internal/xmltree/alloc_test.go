package xmltree_test

import (
	"runtime"
	"testing"

	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestLabelPatchCopiesAChunkNotAList holds what keeping the label index in
// step costs a published document: a bidder with two text nodes inserted
// under one open_auction of 1 MB of XMark and deleted again, an epoch after
// each. The #text list alone is 24,770 nodes, 193 KB; the index may copy the
// chunks the mutation lands in and its own map, not a list. The cost is read
// as the difference between the same mutations with the index built and
// without it, where patchLabels has nothing to patch.
func TestLabelPatchCopiesAChunkNotAList(t *testing.T) {
	src := xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	forest, err := xmltree.ParseString(`<bidder><date>03/03/2021</date><increase>3.00</increase></bidder>`)
	if err != nil {
		t.Fatal(err)
	}
	pairBytes := func(indexed bool) uint64 {
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
			if texts := d.LabeledChunks(xmltree.TextLabel).Len(); texts < 20_000 {
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
		return after.TotalAlloc - before.TotalAlloc
	}
	bare, indexed := pairBytes(false), pairBytes(true)
	t.Logf("insert + delete + two epochs: %d B without the index, %d B with it", bare, indexed)
	if cost := int64(indexed) - int64(bare); cost >= 32<<10 {
		t.Errorf("patching the label index allocated %d KB for a two-text-node insert and delete, budget 32 KB", cost>>10)
	}
}
