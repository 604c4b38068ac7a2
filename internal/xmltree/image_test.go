package xmltree

import (
	"testing"

	"xivm/internal/dewey"
)

// nodeAt resolves a path of child positions from the root.
func nodeAt(d *Document, path ...int) *Node {
	n := d.Root
	for _, i := range path {
		n = n.kids()[i]
	}
	return n
}

// TestSnapshotSharesWhatDidNotChange pins the shape of a persistent tree:
// the first epoch is the parsed tree itself; after a mutation the spine
// from the touched parent to the root is new and reported, every other
// subtree is the previous epoch's, and the previous epoch is not written
// to.
func TestSnapshotSharesWhatDidNotChange(t *testing.T) {
	d, err := ParseString(`<r><a><b><c/></b><b/></a><a><b/></a><e>t</e></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	if got := img1.CopiedNodes(); got != 0 || img1.Root != d.Root {
		t.Fatalf("first epoch copied %d nodes, want the parsed tree itself", got)
	}
	if again := d.Snapshot(); again.Root != img1.Root || again.CopiedNodes() != 0 {
		t.Fatal("an unchanged document must yield the same tree")
	}
	if img1.Snapshot() != img1 {
		t.Fatal("an epoch is its own snapshot")
	}
	before := img1.String()

	// One insertion under r/a[0]/b[0]: spine r, a, b plus the new node.
	tmpl, _ := ParseString(`<x/>`)
	_, replaced, err := d.ApplyInsertions([]Insertion{{Target: nodeAt(d, 0, 0), Trees: []*Node{tmpl.Root}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replaced) != 3 {
		t.Fatalf("mutator reported %d replaced nodes, want the spine of 3", len(replaced))
	}
	for _, n := range replaced {
		if d.NodeByID(n.ID()) != n || img1.NodeByID(n.ID()) == n {
			t.Errorf("replaced node %v is not the writer's copy", n.ID())
		}
	}
	img2 := d.Snapshot()
	if got := img2.CopiedNodes(); got != 4 {
		t.Fatalf("second epoch copied %d nodes, want 4 (spine of 3 + 1 inserted)", got)
	}
	if img2.String() != d.String() || img2.Size() != d.Size() {
		t.Fatalf("epoch %s (size %d), writer %s (size %d)", img2, img2.Size(), d, d.Size())
	}
	if img1.String() != before {
		t.Fatalf("mutating changed the previous epoch: %s", img1)
	}
	for _, path := range [][]int{{}, {0}, {0, 0}} {
		if nodeAt(img1, path...) == nodeAt(img2, path...) {
			t.Errorf("spine node at %v shared between epochs", path)
		}
	}
	for _, path := range [][]int{{0, 0, 0}, {0, 1}, {1}, {2}} {
		if nodeAt(img1, path...) != nodeAt(img2, path...) {
			t.Errorf("untouched subtree at %v was copied", path)
		}
	}
	Walk(img2.Root, func(n *Node) bool {
		if got := img2.NodeByID(n.ID()); got != n {
			t.Errorf("NodeByID(%v) = %p, want the epoch's own node %p", n.ID(), got, n)
		}
		for _, c := range n.kids() {
			if got := ParentIn(img2.Root, c); got != n {
				t.Errorf("ParentIn(%v) = %v, want %v", c.ID(), got, n.ID())
			}
		}
		return true
	})
	if ParentIn(img2.Root, img2.Root) != nil {
		t.Error("the root has no parent")
	}
	if id := nodeAt(d, 2).ID().Child("zz", dewey.OrdAt(0)); img2.NodeByID(id) != nil {
		t.Error("NodeByID resolved an ID the epoch does not hold")
	}
	if _, _, err := img2.ApplyInsertions([]Insertion{{Target: img2.Root, Trees: []*Node{tmpl.Root}}}); err == nil {
		t.Error("an epoch accepted an insertion")
	}
	if _, _, err := img2.ApplyDeleteBatch([]*Node{nodeAt(img2, 2)}); err == nil {
		t.Error("an epoch accepted a deletion")
	}
}

// TestMutatorsGoByID is rule 1: a caller's node pointers were resolved
// before the mutation and may be to nodes a copy has replaced. Two
// insertions under one target in one list, and an insertion into X followed
// by a deletion of X through the pointers taken before either, land where
// a never-published twin puts them — and the detached X holds the child
// inserted a moment before.
func TestMutatorsGoByID(t *testing.T) {
	const src = `<r><x><k/></x><y/></r>`
	published, _ := ParseString(src)
	inPlace, _ := ParseString(src)
	published.Snapshot()
	tmpl, _ := ParseString(`<n>1</n>`)
	for _, d := range []*Document{published, inPlace} {
		x := nodeAt(d, 0) // resolved once, before the "batch"
		ins := Insertion{Target: x, Trees: []*Node{tmpl.Root}}
		if _, _, err := d.ApplyInsertions([]Insertion{ins, ins}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyInsert(x, tmpl.Root); err != nil {
			t.Fatal(err)
		}
		if got, want := d.String(), `<r><x><k/><n>1</n><n>1</n><n>1</n></x><y/></r>`; got != want {
			t.Fatalf("after three insertions through one pointer: %s, want %s", got, want)
		}
		gone, err := d.ApplyDelete(x)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := gone.Content(), `<x><k/><n>1</n><n>1</n><n>1</n></x>`; got != want {
			t.Fatalf("detached subtree %s, want %s", got, want)
		}
		if d.String() != `<r><y/></r>` || d.Size() != 2 {
			t.Fatalf("document %s (size %d)", d, d.Size())
		}
		if _, err := d.ApplyInsert(x, tmpl.Root); err == nil {
			t.Fatal("inserted under a node that has left the document")
		}
	}
	if published.String() != inPlace.String() {
		t.Fatalf("published %s, in place %s", published, inPlace)
	}
}

// TestNeverPublishedNeverCopies is rule 3: without a Snapshot the mutators
// edit the parsed nodes themselves and report nothing replaced.
func TestNeverPublishedNeverCopies(t *testing.T) {
	d, err := ParseString(`<r><a><b/><b/></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Labeled("b")
	r, a := d.Root, nodeAt(d, 0)
	tmpl, _ := ParseString(`<x><y/></x>`)
	_, replaced, err := d.ApplyInsertions([]Insertion{{Target: a, Trees: []*Node{tmpl.Root}}})
	if err != nil || len(replaced) != 0 {
		t.Fatalf("insert: %v, %d replaced", err, len(replaced))
	}
	_, replaced, err = d.ApplyDeleteBatch([]*Node{a.kids()[0]})
	if err != nil || len(replaced) != 0 {
		t.Fatalf("delete: %v, %d replaced", err, len(replaced))
	}
	if d.Root != r || nodeAt(d, 0) != a || d.String() != `<r><a><b/><x><y/></x></a><c/></r>` {
		t.Fatalf("the tree was copied, or is wrong: %s", d)
	}
	if got := d.Labeled("b"); len(got) != 1 || got[0] != a.kids()[0] {
		t.Fatalf("label index out of step: %v", got)
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
	a := nodeAt(d, 0) // the three mutations below reach it by ID
	for i := 0; i < 3; i++ {
		if _, err := d.ApplyInsert(a, tmpl.Root); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.ApplyDeleteBatch([]*Node{a.kids()[0], a.kids()[2]}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelete(a.kids()[1]); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	// r and a once each, three inserted subtrees of two nodes.
	if got := img.CopiedNodes(); got != 2+6 {
		t.Fatalf("copied %d nodes, want 8", got)
	}
	if want := `<r><a><x><y/></x><x><y/></x><x><y/></x></a><c/></r>`; img.String() != want || img.Size() != 9 || d.Size() != 9 {
		t.Fatalf("epoch %s (sizes %d, %d), want %s", img, img.Size(), d.Size(), want)
	}
}

// TestSnapshotNestedBatchDelete: a batch that names a node and one of its
// own descendants keeps the label index in step, on the writer and on the
// epoch after it.
func TestSnapshotNestedBatchDelete(t *testing.T) {
	d, err := ParseString(`<r><a><b><c/></b></a><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.Snapshot().Labeled("c")
	if _, _, err := d.ApplyDeleteBatch([]*Node{nodeAt(d, 0, 0, 0), nodeAt(d, 0)}); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	if img.String() != `<r><a/></r>` || img.Size() != 2 {
		t.Fatalf("epoch %s (size %d)", img, img.Size())
	}
	for _, l := range []string{"a", "b", "c"} {
		if got, want := len(img.Labeled(l)), len(d.Labeled(l)); got != want || (l != "a" && got != 0) {
			t.Errorf("Labeled(%s): epoch %d, writer %d", l, got, want)
		}
	}
	if got := img.Labeled("a"); len(got) != 1 || got[0] != nodeAt(img, 0) {
		t.Errorf("Labeled(a) = %v, want the surviving a", got)
	}
}

// TestResetImage: a reset drops the label index and nothing else — the next
// epoch still shares the tree, the next Labeled is a fresh walk, and the
// epochs published before keep the index they had.
func TestResetImage(t *testing.T) {
	d, err := ParseString(`<r><a/><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	as := img1.Labeled("a")
	d.resetImage()
	if d.labels.li.Load() != nil {
		t.Fatal("the writer kept its label index across a reset")
	}
	tmpl, _ := ParseString(`<a/>`)
	if _, err := d.ApplyInsert(d.Root, tmpl.Root); err != nil {
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if img2.CopiedNodes() != 2 || nodeAt(img1, 0) != nodeAt(img2, 0) {
		t.Fatalf("copied %d nodes after a reset, want the root and the insertion", img2.CopiedNodes())
	}
	if got := img2.Labeled("a"); len(got) != 2 || got[0] != nodeAt(img2, 0) || got[1] != nodeAt(img2, 2) {
		t.Fatalf("Labeled(a) after a reset = %v", got)
	}
	if got := img1.Labeled("a"); len(got) != 1 || got[0] != as[0] {
		t.Fatal("the reset reached the epoch published before it")
	}
}

// TestLabelIndexCarried: the lineage has one label index. An epoch asked
// for a label indexes it for the writer too; the epoch after gets it without
// a walk, over its own nodes — including the path-copied spine nodes, whose
// pointers changed though they were neither inserted nor deleted — and the
// predecessor's lists are left as they were. A list first built on an
// epoch the writer has already moved on from stays that epoch's.
func TestLabelIndexCarried(t *testing.T) {
	d, err := ParseString(`<r><a><b>x</b></a><b/><a><a/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	img1 := d.Snapshot()
	as1 := append([]*Node(nil), img1.Labeled("a")...)
	if d.labels.li.Load() == nil {
		t.Fatal("an index built on the current epoch is not the writer's too")
	}

	tmpl, _ := ParseString(`<a><c>y</c></a>`)
	if _, err := d.ApplyInsert(nodeAt(d, 2, 0), tmpl.Root); err != nil { // under r/a[1]/a
		t.Fatal(err)
	}
	if _, err := d.ApplyDelete(nodeAt(d, 0, 0)); err != nil { // r/a[0]/b
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if img2.labels.li.Load() == nil {
		t.Fatal("label index not carried to the next epoch")
	}
	fresh := map[string][]*Node{}
	Walk(img2.Root, func(n *Node) bool {
		fresh[n.Label()] = append(fresh[n.Label()], n)
		return true
	})
	for _, l := range []string{"r", "a", "b", "c", TextLabel, "zzz"} {
		got := img2.Labeled(l)
		if len(got) != len(fresh[l]) {
			t.Fatalf("Labeled(%s) = %d nodes, want %d", l, len(got), len(fresh[l]))
		}
		for i := range got {
			if got[i] != fresh[l][i] {
				t.Errorf("Labeled(%s)[%d] is not this epoch's node %v", l, i, fresh[l][i].ID())
			}
		}
	}
	for i, n := range img1.Labeled("a") {
		if n != as1[i] {
			t.Fatal("carrying the index forward edited the previous epoch's list")
		}
	}

	// A late build on an old epoch must not reach the writer.
	e, _ := ParseString(`<r><a/></r>`)
	old := e.Snapshot()
	if _, err := e.ApplyInsert(e.Root, tmpl.Root); err != nil {
		t.Fatal(err)
	}
	if got := old.Labeled("a"); len(got) != 1 {
		t.Fatalf("old epoch: Labeled(a) = %d nodes, want 1", len(got))
	}
	if got := e.Labeled("a"); len(got) != 2 || got[0] != nodeAt(e, 0) {
		t.Fatalf("writer: Labeled(a) = %v, want its own two", got)
	}
}

// TestSnapshotStampWrap: when the publication stamp wraps, a node copied
// 2^32 publications ago would carry the current stamp and pass for owned;
// the writer moves to a fresh copy instead of editing under its readers.
func TestSnapshotStampWrap(t *testing.T) {
	d, err := ParseString(`<r><a/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d.gen = ^uint32(0)
	img1 := d.Snapshot() // the stamp wraps
	if d.Root == img1.Root || nodeAt(d, 0) == nodeAt(img1, 0) {
		t.Fatal("the writer still holds nodes of the epoch before the wrap")
	}
	tmpl, _ := ParseString(`<x/>`)
	if _, err := d.ApplyInsert(d.Root, tmpl.Root); err != nil {
		t.Fatal(err)
	}
	img2 := d.Snapshot()
	if img1.String() != `<r><a/></r>` || img2.String() != `<r><a/><x/></r>` || d.String() != img2.String() {
		t.Fatalf("epochs %s, %s; writer %s", img1, img2, d)
	}
	if _, err := d.ApplyInsert(d.Root, tmpl.Root); err != nil {
		t.Fatal(err)
	}
	if img2.String() != `<r><a/><x/></r>` || d.Labeled("x")[1] != nodeAt(d, 2) {
		t.Fatalf("after the wrap: epoch %s, writer %s", img2, d)
	}
}
