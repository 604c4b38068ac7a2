package xmltree_test

import (
	"runtime"
	"strings"
	"testing"

	"xivm/internal/xmltree"
)

// siblings is a document of two sibling subtrees of 8,000 items each, and
// the document without the first.
func siblings() (both, second string) {
	items := strings.Repeat(`<item id="i"><name>an item's name</name><text>what the item says of itself</text><flag/></item>`, 8000)
	return "<r><a>" + items + "</a><b>" + items + "</b></r>", "<r><b>" + items + "</b></r>"
}

// TestDeletedSubtreeFreesItsSlabs: deleting either of two large sibling
// subtrees from a published document and publishing again frees at least
// 90% of that subtree's bytes once the epochs that held it are gone. The
// subtree's values and keys lie in byte-slab chunks of their own but at its
// two edges, and hold no pointers; its nodes and child arrays are
// allocations of their own (~99.6% freed, measured). Nodes cut from slab
// chunks would free ~2%: a replaced node keeps what it pointed at — the old
// root's child array names both subtrees — and a chunk one live node holds
// keeps every node in it. The subtree's bytes are the parsed document's
// less the document without it.
func TestDeletedSubtreeFreesItsSlabs(t *testing.T) {
	both, second := siblings()
	for victim, name := range []string{"first", "second"} {
		base := liveHeap()
		d := mustParse(t, second)
		d.Labeled("name")
		without := liveHeap() - base
		runtime.KeepAlive(d)

		base = liveHeap()
		d = mustParse(t, both)
		d.Labeled("name") // an indexed label, patched by the delete
		whole := liveHeap() - base
		subtree := whole - without
		d.Snapshot()
		if _, err := d.ApplyDelete(d.Root.ElementChildren()[victim]); err != nil {
			t.Fatal(err)
		}
		epoch := d.Snapshot()
		if got := len(epoch.Labeled("name")); got != 8000 {
			t.Fatalf("%s deleted: the epoch indexes %d names, want 8000", name, got)
		}
		if err := xmltree.CheckKids(epoch.Root); err != nil {
			t.Fatal(err)
		}
		epoch = nil
		freed := whole - (liveHeap() - base)
		t.Logf("%s of two subtrees deleted: %d B of %d freed (%.1f%%)", name, freed, subtree, 100*float64(freed)/float64(subtree))
		if float64(freed) < 0.9*float64(subtree) {
			t.Errorf("deleting the %s subtree freed %d B of its %d", name, freed, subtree)
		}
		runtime.KeepAlive(d)
	}
}
