package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

const doc1 = `<a><c><b>1</b><b>2</b></c><f><c><b>3</b></c><b>4</b></f></a>`

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCanonicalRelations(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	if got := len(s.Items("b")); got != 4 {
		t.Fatalf("|R_b| = %d", got)
	}
	if got := len(s.Items("c")); got != 2 {
		t.Fatalf("|R_c| = %d", got)
	}
	if got := len(s.Items("*")); got != 8 {
		t.Fatalf("elements = %d", got)
	}
	items := s.Items("b")
	for i := 1; i < len(items); i++ {
		if items[i-1].ID.Compare(items[i].ID) >= 0 {
			t.Fatal("R_b not in document order")
		}
	}
}

// TestAddRemoveSubtree: the relations are the document's label index, so a
// mutation of the document is in them without the store being told.
func TestAddRemoveSubtree(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	if len(s.Items("b")) != 4 {
		t.Fatalf("|R_b| = %d", len(s.Items("b")))
	}
	forest, err := xmltree.ParseForest(`<c><b/><b/></c>`)
	if err != nil {
		t.Fatal(err)
	}
	target := d.Root.ElementChildren()[0] // first c
	cp, err := d.ApplyInsert(target, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items("b")) != 6 || len(s.Items("c")) != 3 {
		t.Fatalf("after insert: b=%d c=%d", len(s.Items("b")), len(s.Items("c")))
	}
	items := s.Items("b")
	for i := 1; i < len(items); i++ {
		if items[i-1].ID.Compare(items[i].ID) >= 0 {
			t.Fatal("R_b lost order after insert")
		}
	}
	if _, err := d.ApplyDelete(cp); err != nil {
		t.Fatal(err)
	}
	if len(s.Items("b")) != 4 || len(s.Items("c")) != 2 {
		t.Fatalf("after delete: b=%d c=%d", len(s.Items("b")), len(s.Items("c")))
	}
}

// TestItemsStableAcrossRemove: a slice Items handed out never changes —
// neither a plain label's, built for the caller out of the index that the
// delete then edits where it lies, nor R_*, built by a walk of the tree the
// delete then edits. A caller holding one (a delta input, a Mat fill) reads
// what it was given.
func TestItemsStableAcrossRemove(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	held := s.Items("b")
	if len(held) != 4 {
		t.Fatalf("|R_b| = %d", len(held))
	}
	snapshot := make([]algebra.Item, len(held))
	copy(snapshot, held)

	// Delete the first c subtree (removes b1, b2 from R_b).
	target := d.Root.ElementChildren()[0]
	if _, err := d.ApplyDelete(target); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Items("b")); got != 2 {
		t.Fatalf("|R_b| after delete = %d", got)
	}
	for i := range snapshot {
		if !held[i].ID.Equal(snapshot[i].ID) {
			t.Fatalf("held Items() slice mutated at %d: %v, want %v (in-place compaction)",
				i, held[i].ID, snapshot[i].ID)
		}
	}
	// R_*, read by a walk of the tree, is the caller's too.
	heldElems := s.Items("*")
	elemSnap := make([]algebra.Item, len(heldElems))
	copy(elemSnap, heldElems)
	if _, err := d.ApplyDelete(d.Root.ElementChildren()[0]); err != nil { // the f subtree
		t.Fatal(err)
	}
	for i := range elemSnap {
		if heldElems[i] != elemSnap[i] {
			t.Fatalf("held elements slice mutated at %d", i)
		}
	}
	if got := len(s.Items("*")); got != 1 {
		t.Fatalf("|R_*| = %d after both deletes, want the root alone", got)
	}
}

// TestHiddenSubtreesCutByKeyPrefix: many roots hidden in one call, one
// nested in another, unsorted and repeated — every relation, R_* and the
// word relations lose exactly the nodes below the roots, and Hide(nil)
// shows them all again.
func TestHiddenSubtreesCutByKeyPrefix(t *testing.T) {
	var src strings.Builder
	src.WriteString("<a>")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&src, "<c><b>%d</b><c><b>n</b></c></c>", i)
	}
	src.WriteString("</a>")
	d := mustDoc(t, src.String())
	s := New(d)
	cs := d.Root.ElementChildren()
	roots := []*xmltree.Node{cs[9], cs[2], cs[2].ElementChildren()[1], cs[5], cs[9]}
	shown := func(hidden []*xmltree.Node, label string) []string {
		var keys []string
		for _, it := range algebra.DocItems(d, label) {
			if !slices.ContainsFunc(hidden, func(r *xmltree.Node) bool { return strings.HasPrefix(it.ID.Key(), r.ID().Key()) }) {
				keys = append(keys, it.ID.Key())
			}
		}
		return keys
	}
	for _, hidden := range [][]*xmltree.Node{roots, nil} {
		s.Hide(hidden)
		for _, l := range []string{"a", "b", "c", "#text", "*", "~n"} {
			var got []string
			for _, it := range s.Items(l) {
				got = append(got, it.ID.Key())
			}
			if want := shown(hidden, l); !slices.Equal(got, want) {
				t.Errorf("%d roots hidden: R_%s holds %d items, want %d", len(hidden), l, len(got), len(want))
			}
		}
	}
	if len(s.Items("b")) != 24 {
		t.Fatalf("|R_b| = %d after Hide(nil), want 24", len(s.Items("b")))
	}
}

// TestParallelReadDuringRemove deletes subtrees while concurrent readers
// iterate previously returned Items() slices. Run under -race this fails if
// a handed-out slice shares memory with the label index the deletes edit.
func TestParallelReadDuringRemove(t *testing.T) {
	d := mustDoc(t, `<a><c><b>1</b><b>2</b></c><c><b>3</b></c><c><b>4</b></c><c><b>5</b></c></a>`)
	s := New(d)
	held := s.Items("b")
	heldText := s.Items("#text")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, it := range held {
				_ = it.ID.Key()
			}
			for _, it := range heldText {
				_ = it.Node.StringValue()
			}
		}
	}()
	for _, c := range d.Root.ElementChildren() {
		if _, err := d.ApplyDelete(c); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(s.Items("b")); got != 0 {
		t.Fatalf("|R_b| = %d after deleting everything", got)
	}
}

func TestInputsApplySigma(t *testing.T) {
	d := mustDoc(t, `<r><a>5</a><a>3</a></r>`)
	s := New(d)
	p := pattern.MustParse(`//a{ID}[val="5"]`)
	in := s.Inputs(p)
	if len(in[0]) != 1 {
		t.Fatalf("σ(R_a) = %d items", len(in[0]))
	}
}

// TestLabels: each label the document carries has its nodes in its
// relation, together every node of the document, and a label it does not
// carry has none.
func TestLabels(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	want := map[string]int{"a": 1, "b": 4, "c": 2, "f": 1, "#text": 4, "d": 0, "@id": 0}
	sum := 0
	for l, n := range want {
		if got := len(s.Items(l)); got != n {
			t.Fatalf("|R_%s| = %d, want %d", l, got, n)
		}
		sum += n
	}
	nodes := 0
	xmltree.Walk(d.Root, func(*xmltree.Node) bool { nodes++; return true })
	if sum != nodes {
		t.Fatalf("the relations hold %d nodes, the document %d", sum, nodes)
	}
}

func TestViewUpsertDecrement(t *testing.T) {
	p := pattern.MustParse(`//a{ID}[//b]`)
	d := mustDoc(t, `<a><b/><c><b/></c></a>`)
	rows := algebra.Materialize(d, p)
	v := NewViewOf(algebra.NewShape(p), rows)
	if v.Len() != 1 {
		t.Fatalf("len %d", v.Len())
	}
	r := v.Rows()[0]
	if r.Count != 2 {
		t.Fatalf("count %d", r.Count)
	}
	if existed, removed := v.DecrementBy(r, 1); !existed || removed {
		t.Fatal("first decrement should keep the row")
	}
	if existed, removed := v.DecrementBy(r, 1); !existed || !removed {
		t.Fatal("second decrement should remove the row")
	}
	if v.Len() != 0 {
		t.Fatalf("len %d after removal", v.Len())
	}
	// Re-adding after removal works.
	if !v.Upsert(r) {
		t.Fatal("upsert after removal should be new")
	}
	if got, ok := v.Get(r); !ok || got.Count != 2 {
		t.Fatalf("Get after re-add: %v %v", got, ok)
	}
}

func TestViewRemoveReplaceCompact(t *testing.T) {
	p := pattern.MustParse(`//a{ID,val}`)
	d := mustDoc(t, `<r><a>x</a><a>y</a></r>`)
	v := NewViewOf(algebra.NewShape(p), algebra.Materialize(d, p))
	rows := v.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if !v.Replace(rows[0], func(r algebra.Row) {
		e := v.shape.Entry(r, 0)
		e.Val = "z"
		v.shape.Set(r, 0, e)
	}) {
		t.Fatal("replace failed")
	}
	if got, _ := v.Get(rows[0]); v.shape.Entry(got, 0).Val != "z" {
		t.Fatal("replace not visible")
	}
	if !v.Remove(rows[1]) {
		t.Fatal("remove failed")
	}
	if v.Len() != 1 || len(v.Rows()) != 1 {
		t.Fatalf("after remove: %d", v.Len())
	}
}

// TestReplaceLeavesHandedOutRowsAlone: stored rows are immutable, so what
// Rows, Freeze (an epoch's view rows) and Get handed out before a refresh
// keeps the val and cont it had, and the view serves the new ones.
func TestReplaceLeavesHandedOutRowsAlone(t *testing.T) {
	p := pattern.MustParse(`//a{ID,val,cont}`)
	d := mustDoc(t, `<r><a>x</a><a>y</a></r>`)
	v := NewViewOf(algebra.NewShape(p), algebra.Materialize(d, p))
	rows := v.Rows()
	got, _ := v.Get(rows[0])
	frozen, _ := v.Freeze()
	if !v.Replace(rows[0], func(r algebra.Row) {
		e := v.shape.Entry(r, 0)
		e.Val, e.Cont = "z", "<a>z</a>"
		v.shape.Set(r, 0, e)
	}) {
		t.Fatal("replace failed")
	}
	for _, old := range []algebra.Row{rows[0], got, frozen.AppendTo(nil)[0]} {
		if e := v.shape.Entry(old, 0); e.Val != "x" || e.Cont != "<a>x</a>" {
			t.Fatalf("a row handed out before Replace now reads val %q cont %q", e.Val, e.Cont)
		}
	}
	if e := v.shape.Entry(v.Rows()[0], 0); e.Val != "z" || e.Cont != "<a>z</a>" {
		t.Fatalf("view serves val %q cont %q after Replace", e.Val, e.Cont)
	}
	if _, moved := v.Freeze(); !moved {
		t.Fatal("Replace did not move the view")
	}
}

func TestMatFillAddRemove(t *testing.T) {
	p := pattern.MustParse(`//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	d := mustDoc(t, `<a><b><c/></b><d/></a>`)
	s := New(d)
	mask := uint64(1 | 1<<1) // {a,b}
	m := NewMat(p, mask)
	b := algebra.EvalSubPattern(p, mask, s.Inputs(p), nil)
	m.FillFromBlock(b)
	if m.Len() != 1 {
		t.Fatalf("mat len %d", m.Len())
	}
	blk := m.Block()
	if len(blk.Cols) != 2 || blk.Cols[0] != 0 || blk.Cols[1] != 1 {
		t.Fatalf("cols %v", blk.Cols)
	}
	// Add a tuple again: accumulates count, not size.
	m.AddBlock(b)
	if m.Len() != 1 {
		t.Fatalf("after re-add len %d", m.Len())
	}
	// Remove under the b node.
	bNode := d.Root.ElementChildren()[0]
	if got := m.RemoveIf(coverOf([]dewey.ID{bNode.ID()}).ContainsAny); got != 1 {
		t.Fatalf("removed %d", got)
	}
	if m.Len() != 0 {
		t.Fatalf("len %d", m.Len())
	}
}

// TestConcurrentItemsDuringMutation: Items from several goroutines at
// once, for a plain label, "*" and "#text", and then, while the writer inserts and deletes a subtree, each
// reader going over the slices it retained, which must keep their
// contents. Run under -race it also fails if a retained slice shares
// memory with the label index the writer edits in place.
func TestConcurrentItemsDuringMutation(t *testing.T) {
	d := mustDoc(t, `<a><c><b>1</b><b>2</b></c><c><b>3</b></c></a>`)
	s := New(d)
	read := func() []algebra.Item {
		return slices.Concat(s.Items("b"), s.Items("*"), s.Items("#text"))
	}
	for i := 0; i < 100; i++ {
		const readers = 4
		var wg sync.WaitGroup
		held, keys := make([][]algebra.Item, readers), make([][]string, readers)
		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				held[r] = read()
				for _, it := range held[r] {
					keys[r] = append(keys[r], it.ID.Key())
				}
			}()
		}
		wg.Wait()

		for r := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					for k, it := range held[r] {
						if it.ID.Key() != keys[r][k] || it.Node.ID().Key() != keys[r][k] {
							panic("retained Items slice changed under a mutation")
						}
					}
				}
			}()
		}
		forest, err := xmltree.ParseForest(`<c><b>9</b><b>8</b></c>`)
		if err != nil {
			t.Fatal(err)
		}
		attached, err := d.ApplyInsert(d.Root, forest[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyDelete(attached); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	if got := len(s.Items("b")); got != 3 {
		t.Fatalf("|R_b| = %d after balanced insert/delete churn, want 3", got)
	}
}

// coverOf builds the cover of roots, as a statement's scratch does.
func coverOf(roots []dewey.ID) *dewey.Cover {
	c := new(dewey.Cover)
	c.Reset(roots)
	return c
}

// Get returns the stored row binding the same nodes as probe.
func (v *View) Get(probe algebra.Row) (algebra.Row, bool) { return v.rows.Get(probe) }
