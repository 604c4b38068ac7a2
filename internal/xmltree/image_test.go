package xmltree

import (
	"testing"

	"xivm/internal/dewey"
)

// nodeAt resolves a path of child positions from the root.
func nodeAt(d *Document, path ...int) *Node {
	n := d.Root
	for _, i := range path {
		n = n.Children[i]
	}
	return n
}

// TestSnapshotSharesWhatDidNotChange pins the shape of a path-copied image:
// the spine from the touched parent to the root is new, every other subtree
// is the previous image's, nothing carries a Parent pointer, and the
// previous image is not written to.
func TestSnapshotSharesWhatDidNotChange(t *testing.T) {
	d, err := ParseString(`<r><a><b><c/></b><b/></a><a><b/></a><e>t</e></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	if got := img1.CopiedNodes(); got != d.Size() {
		t.Fatalf("first image copied %d nodes, want all %d", got, d.Size())
	}
	if d.Snapshot() != img1 {
		t.Fatal("an unchanged document must yield the same image")
	}
	if img1.Snapshot() != img1 {
		t.Fatal("an image is its own snapshot")
	}
	before := img1.String()

	// One insertion under r/a[0]/b[0]: spine r, a, b plus the new node.
	tmpl, _ := ParseString(`<x/>`)
	if _, err := d.ApplyInsert(nodeAt(d, 0, 0), tmpl.Root); err != nil {
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if got := img2.CopiedNodes(); got != 4 {
		t.Fatalf("second image copied %d nodes, want 4 (spine of 3 + 1 inserted)", got)
	}
	if img2.String() != d.String() || img2.Size() != d.Size() {
		t.Fatalf("image %s (size %d), live %s (size %d)", img2, img2.Size(), d, d.Size())
	}
	if img1.String() != before {
		t.Fatalf("publishing changed the previous image: %s", img1)
	}
	for _, path := range [][]int{{}, {0}, {0, 0}} {
		if nodeAt(img1, path...) == nodeAt(img2, path...) {
			t.Errorf("spine node at %v shared between images", path)
		}
	}
	for _, path := range [][]int{{0, 0, 0}, {0, 1}, {1}, {2}} {
		if nodeAt(img1, path...) != nodeAt(img2, path...) {
			t.Errorf("untouched subtree at %v was copied", path)
		}
	}
	Walk(img2.Root, func(n *Node) bool {
		if n.Parent != nil {
			t.Errorf("image node %v carries a Parent pointer", n.ID)
		}
		if got := img2.NodeByID(n.ID); got != n {
			t.Errorf("NodeByID(%v) = %p, want the image's own node %p", n.ID, got, n)
		}
		for _, c := range n.Children {
			if got := ParentIn(img2.Root, c); got != n {
				t.Errorf("ParentIn(%v) = %v, want %v", c.ID, got, n.ID)
			}
		}
		return true
	})
	if ParentIn(img2.Root, img2.Root) != nil {
		t.Error("the root has no parent")
	}
	if id := nodeAt(d, 2).ID.Child("zz", dewey.OrdAt(0)); img2.NodeByID(id) != nil {
		t.Error("NodeByID resolved an ID the image does not hold")
	}
}

// TestSnapshotCopiesASpineOncePerEpoch: many mutations under one parent
// between two publications path-copy its spine once.
func TestSnapshotCopiesASpineOncePerEpoch(t *testing.T) {
	d, err := ParseString(`<r><a><b/><b/><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Snapshot()
	tmpl, _ := ParseString(`<x><y/></x>`)
	a := nodeAt(d, 0)
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyInsert(a, tmpl.Root); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ApplyDeleteBatch([]*Node{a.Children[0], a.Children[2]}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelete(a.Children[1]); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	// r and a once each, three inserted subtrees of two nodes.
	if got := img.CopiedNodes(); got != 2+6 {
		t.Fatalf("copied %d nodes, want 8", got)
	}
	if img.String() != d.String() || img.Size() != d.Size() {
		t.Fatalf("image %s (size %d), live %s (size %d)", img, img.Size(), d, d.Size())
	}
}

// TestSnapshotNestedBatchDelete: a batch that names a node and one of its
// own descendants detaches the descendant from a parent that has already
// left the document.
func TestSnapshotNestedBatchDelete(t *testing.T) {
	d, err := ParseString(`<r><a><b><c/></b></a><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Snapshot().Labeled("c")
	d.Labeled("c")
	if _, err := d.ApplyDeleteBatch([]*Node{nodeAt(d, 0, 0, 0), nodeAt(d, 0)}); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	if img.String() != `<r><a/></r>` || img.Size() != 2 {
		t.Fatalf("image %s (size %d)", img, img.Size())
	}
	for _, l := range []string{"a", "b", "c"} {
		if got, want := len(img.Labeled(l)), len(d.Labeled(l)); got != want || (l != "a" && got != 0) {
			t.Errorf("Labeled(%s): image %d, live %d", l, got, want)
		}
	}
}

// TestResetImage: after a reset the next image is a fresh deep copy that
// shares nothing with the ones before.
func TestResetImage(t *testing.T) {
	d, err := ParseString(`<r><a/><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	d.ResetImage()
	img2 := d.Snapshot()
	if img2.CopiedNodes() != d.Size() {
		t.Fatalf("copied %d nodes after a reset, want all %d", img2.CopiedNodes(), d.Size())
	}
	if nodeAt(img1, 0) == nodeAt(img2, 0) {
		t.Fatal("images across a reset share nodes")
	}
}

// TestLabelIndexCarried: an image whose predecessor had a label index gets
// one without a walk, over its own nodes — including the path-copied spine
// nodes, whose pointers changed though they were neither inserted nor
// deleted — and the predecessor's lists are left as they were.
func TestLabelIndexCarried(t *testing.T) {
	d, err := ParseString(`<r><a><b>x</b></a><b/><a><a/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	as1 := append([]*Node(nil), img1.Labeled("a")...)

	tmpl, _ := ParseString(`<a><c>y</c></a>`)
	if _, err := d.ApplyInsert(nodeAt(d, 2, 0), tmpl.Root); err != nil { // under r/a[1]/a
		t.Fatal(err)
	}
	if _, err := d.ApplyDelete(nodeAt(d, 0, 0)); err != nil { // r/a[0]/b
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if img2.labels.Load() == nil {
		t.Fatal("label index not carried to the next image")
	}
	fresh := map[string][]*Node{}
	Walk(img2.Root, func(n *Node) bool {
		fresh[n.Label] = append(fresh[n.Label], n)
		return true
	})
	for _, l := range []string{"r", "a", "b", "c", TextLabel, "zzz"} {
		got := img2.Labeled(l)
		if len(got) != len(fresh[l]) {
			t.Fatalf("Labeled(%s) = %d nodes, want %d", l, len(got), len(fresh[l]))
		}
		for i := range got {
			if got[i] != fresh[l][i] {
				t.Errorf("Labeled(%s)[%d] is not this image's node %v", l, i, fresh[l][i].ID)
			}
		}
	}
	for i, n := range img1.Labeled("a") {
		if n != as1[i] {
			t.Fatal("carrying the index forward edited the previous image's list")
		}
	}
}

// TestSnapshotStampWrap: when the publication stamp wraps, a node copied
// 2^32 publications ago would carry the current stamp and pass for owned;
// the image is started over instead of editing it under its readers.
func TestSnapshotStampWrap(t *testing.T) {
	d, err := ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.gen = ^uint32(0)
	img1 := d.Snapshot() // stamps its nodes with the last value and wraps
	tmpl, _ := ParseString(`<x/>`)
	if _, err := d.ApplyInsert(d.Root, tmpl.Root); err != nil {
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if img1.String() != `<r><a/></r>` || img2.String() != d.String() {
		t.Fatalf("images %s, %s; live %s", img1, img2, d)
	}
	if img2.CopiedNodes() != d.Size() || nodeAt(img1, 0) == nodeAt(img2, 0) {
		t.Fatal("image after the wrap is not a fresh copy")
	}
}
