package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
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
	if got := s.Count("b"); got != 4 {
		t.Fatalf("|R_b| = %d", got)
	}
	if got := s.Count("c"); got != 2 {
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

func TestAddRemoveSubtree(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	forest, err := xmltree.ParseForest(`<c><b/><b/></c>`)
	if err != nil {
		t.Fatal(err)
	}
	target := d.Root.ElementChildren()[0] // first c
	cp, err := d.ApplyInsert(target, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	s.AddSubtree(cp)
	if s.Count("b") != 6 || s.Count("c") != 3 {
		t.Fatalf("after insert: b=%d c=%d", s.Count("b"), s.Count("c"))
	}
	items := s.Items("b")
	for i := 1; i < len(items); i++ {
		if items[i-1].ID.Compare(items[i].ID) >= 0 {
			t.Fatal("R_b lost order after insert")
		}
	}
	removed, err := d.ApplyDelete(cp)
	if err != nil {
		t.Fatal(err)
	}
	s.RemoveSubtree(removed)
	if s.Count("b") != 4 || s.Count("c") != 2 {
		t.Fatalf("after delete: b=%d c=%d", s.Count("b"), s.Count("c"))
	}
}

// TestItemsStableAcrossRemove is the regression test for the store-aliasing
// bug: Items() hands out the relation's backing array by reference, so a
// subsequent delete must not compact that array in place — a caller holding
// the slice (a delta input, a Mat fill, the lazy batch's rIn) would silently
// read corrupted items.
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
	removed, err := d.ApplyDelete(target)
	if err != nil {
		t.Fatal(err)
	}
	s.RemoveSubtrees([]*xmltree.Node{removed})

	if got := s.Count("b"); got != 2 {
		t.Fatalf("|R_b| after delete = %d", got)
	}
	for i := range snapshot {
		if !held[i].ID.Equal(snapshot[i].ID) {
			t.Fatalf("held Items() slice mutated at %d: %v, want %v (in-place compaction)",
				i, held[i].ID, snapshot[i].ID)
		}
	}
	// The relation also stays self-consistent: elements list untouched for
	// readers holding it.
	heldElems := s.Items("*")
	elemSnap := make([]algebra.Item, len(heldElems))
	copy(elemSnap, heldElems)
	removed2, err := d.ApplyDelete(d.Root.ElementChildren()[0]) // the f subtree
	if err != nil {
		t.Fatal(err)
	}
	s.RemoveSubtrees([]*xmltree.Node{removed2})
	for i := range elemSnap {
		if !heldElems[i].ID.Equal(elemSnap[i].ID) {
			t.Fatalf("held elements slice mutated at %d", i)
		}
	}
}

// TestUnlentRelationEditedInPlace holds the lending rule from both sides. A
// relation nobody has read since its array was last replaced is the
// writer's: an insert/delete pair merges into it and cuts from it where it
// lies, so once the array has room a pair allocates no item array at all
// (a copy per mutation, the rule before, is two per pair). A relation that
// has been read is the reader's: the same pair leaves the held slice
// bit-identical, length, IDs and node pointers.
func TestUnlentRelationEditedInPlace(t *testing.T) {
	const n = 4000
	d := mustDoc(t, "<a>"+strings.Repeat("<b>x</b>", n)+"</a>")
	s := New(d)
	forest, err := xmltree.ParseForest(`<b>new</b>`)
	if err != nil {
		t.Fatal(err)
	}
	// Attached once for its IDs, in the middle of R_b and R_#text; the store
	// goes by those, not by whether the subtree still hangs in the tree.
	sub, err := d.ApplyInsert(d.Root.ElementChildren()[n/2], forest[0])
	if err != nil {
		t.Fatal(err)
	}
	pair := func() {
		s.AddSubtree(sub)
		s.RemoveSubtree(sub)
	}
	pair() // grows both relations' arrays by the one slot a pair needs

	const pairs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	perPair := (after.TotalAlloc - before.TotalAlloc) / pairs
	// One copy of one of the two relations is n items of three words.
	if oneArray := uint64(n * 24); perPair > oneArray/4 {
		t.Errorf("an insert/delete pair on unread relations allocated %d B; one copy of R_b is %d B", perPair, oneArray)
	}
	if s.Count("b") != n || s.Count("#text") != n {
		t.Fatalf("|R_b| = %d, |R_#text| = %d after balanced pairs, want %d", s.Count("b"), s.Count("#text"), n)
	}

	held := s.Items("b")
	want := append([]algebra.Item(nil), held...)
	s.AddSubtree(sub)
	if got := s.Items("b"); len(got) != n+1 || !got[n/2+1].ID.Equal(sub.ID) {
		t.Fatalf("insert after a loan: |R_b| = %d, new item not in place", len(got))
	}
	s.RemoveSubtree(sub)
	pair() // unlent again after the loan ended: back to editing in place
	if len(held) != len(want) {
		t.Fatalf("held slice changed length: %d, want %d", len(held), len(want))
	}
	for i := range want {
		if held[i] != want[i] {
			t.Fatalf("held Items() slice written at %d after it was lent", i)
		}
	}
	s.AddSubtree(sub) // it still hangs in d
	if diff := DiffStores(s, New(d)); diff != "" {
		t.Fatalf("store diverged from a rebuild: %s", diff)
	}
}

// TestRemoveSubtreesCutsByKeyPrefix: many roots in one call, one nested in
// another, unsorted and repeated — each relation loses exactly the blocks
// below the roots, and RemoveNode exactly one item.
func TestRemoveSubtreesCutsByKeyPrefix(t *testing.T) {
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
	for _, r := range []*xmltree.Node{cs[9], cs[5], cs[2]} {
		if _, err := d.ApplyDelete(r); err != nil {
			t.Fatal(err)
		}
	}
	s.RemoveSubtrees(roots)
	if diff := DiffStores(s, New(d)); diff != "" {
		t.Fatalf("after RemoveSubtrees: %s", diff)
	}
	one := d.Root.ElementChildren()[0].ElementChildren()[0] // a b, with its text below it
	s.RemoveNode(one)
	if s.Count("b") != 2*9-1 || s.Count("#text") != 2*9 {
		t.Fatalf("RemoveNode: |R_b| = %d, |R_#text| = %d", s.Count("b"), s.Count("#text"))
	}
}

// TestParallelReadDuringRemove deletes subtrees while concurrent readers
// iterate previously returned Items() slices — the WithParallel() data-race
// scenario. Run under -race this fails against in-place compaction.
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
		removed, err := d.ApplyDelete(c)
		if err != nil {
			t.Fatal(err)
		}
		s.RemoveSubtrees([]*xmltree.Node{removed})
	}
	close(stop)
	wg.Wait()
	if got := s.Count("b"); got != 0 {
		t.Fatalf("|R_b| = %d after deleting everything", got)
	}
}

// TestCountWordNoAlloc: Count("~word") must answer without materializing
// the filtered item list.
func TestCountWordNoAlloc(t *testing.T) {
	d := mustDoc(t, `<r><t>gold ring</t><t>old gold</t><t>silver</t></r>`)
	s := New(d)
	if got := s.Count("~gold"); got != 2 {
		t.Fatalf(`Count("~gold") = %d`, got)
	}
	if got := s.Count("~silver"); got != 1 {
		t.Fatalf(`Count("~silver") = %d`, got)
	}
	if got := s.Count("~missing"); got != 0 {
		t.Fatalf(`Count("~missing") = %d`, got)
	}
	allocs := testing.AllocsPerRun(20, func() { s.Count("~gold") })
	if allocs > 0 {
		t.Fatalf("Count(~word) allocates %.0f objects per call", allocs)
	}
	// Items("~word") still materializes (and still works).
	if got := len(s.Items("~gold")); got != 2 {
		t.Fatalf(`Items("~gold") = %d`, got)
	}
}

func TestDiffStores(t *testing.T) {
	d1 := mustDoc(t, doc1)
	d2 := mustDoc(t, doc1)
	s1, s2 := New(d1), New(d2)
	if diff := DiffStores(s1, s2); diff != "" {
		t.Fatalf("identical stores diff: %s", diff)
	}
	// Desync: remove a subtree from one store only.
	removed, err := d1.ApplyDelete(d1.Root.ElementChildren()[0])
	if err != nil {
		t.Fatal(err)
	}
	s1.RemoveSubtrees([]*xmltree.Node{removed})
	if diff := DiffStores(s1, s2); diff == "" {
		t.Fatal("desynced stores reported equal")
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

func TestLabels(t *testing.T) {
	d := mustDoc(t, doc1)
	s := New(d)
	labels := s.Labels()
	want := map[string]bool{"a": true, "b": true, "c": true, "f": true, "#text": true}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range labels {
		if !want[l] {
			t.Fatalf("unexpected label %q", l)
		}
	}
}

func TestViewUpsertDecrement(t *testing.T) {
	p := pattern.MustParse(`//a{ID}[//b]`)
	d := mustDoc(t, `<a><b/><c><b/></c></a>`)
	rows := algebra.Materialize(d, p)
	v := NewMaterializedView(p, rows)
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
	v := NewMaterializedView(p, algebra.Materialize(d, p))
	rows := v.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if !v.Replace(rows[0], func(r *algebra.Row) { r.Entries[0].Val = "z" }) {
		t.Fatal("replace failed")
	}
	if got, _ := v.Get(rows[0]); got.Entries[0].Val != "z" {
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
	v := NewMaterializedView(p, algebra.Materialize(d, p))
	rows := v.Rows()
	got, _ := v.Get(rows[0])
	frozen, _ := v.Freeze()
	if !v.Replace(rows[0], func(r *algebra.Row) {
		r.Entries[0].Val, r.Entries[0].Cont = "z", "<a>z</a>"
	}) {
		t.Fatal("replace failed")
	}
	for _, old := range []algebra.Row{rows[0], got, frozen[0][0]} {
		if e := old.Entries[0]; e.Val != "x" || e.Cont != "<a>x</a>" {
			t.Fatalf("a row handed out before Replace now reads val %q cont %q", e.Val, e.Cont)
		}
	}
	if e := v.Rows()[0].Entries[0]; e.Val != "z" || e.Cont != "<a>z</a>" {
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
	if got := m.RemoveUnderAny(dewey.NewCover([]dewey.ID{bNode.ID})); got != 1 {
		t.Fatalf("removed %d", got)
	}
	if m.Len() != 0 {
		t.Fatalf("len %d", m.Len())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := pattern.MustParse(`//a{ID}//b{ID,val,cont}`)
	d := mustDoc(t, doc1)
	v := NewMaterializedView(p, algebra.Materialize(d, p))
	data := EncodeSnapshot(v)
	rows, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewMaterializedView(p, rows)
	if !v2.EqualRows(v.Rows()) {
		t.Fatal("snapshot round trip lost rows")
	}
}

// encodeSnapshotWhole is the encoder WriteSnapshot replaced, kept as its
// reference: one pass, the body built whole and the dictionary it filled
// put in front of it afterwards.
func encodeSnapshotWhole(v *View) []byte {
	var dict dewey.Dict
	rows := v.Rows()
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(rows)))
	for _, r := range rows {
		body = binary.AppendUvarint(body, uint64(r.Count))
		body = binary.AppendUvarint(body, uint64(len(r.Entries)))
		for _, e := range r.Entries {
			body = binary.AppendUvarint(body, uint64(e.NodeIdx))
			body = e.ID.Encode(&dict, body)
			body = appendString(body, e.Val)
			body = appendString(body, e.Cont)
		}
	}
	out := []byte(snapshotMagic)
	out = binary.AppendUvarint(out, uint64(dict.Len()))
	for i := 0; i < dict.Len(); i++ {
		label, _ := dict.Label(uint64(i))
		out = appendString(out, label)
	}
	return append(out, body...)
}

// TestWriteSnapshotMatchesWholeEncoder: streaming a snapshot — labels coded
// in a first pass, rows written as they are encoded — produces the bytes
// the one-pass encoder did: for an empty view, for many-label multi-entry
// rows, and for an image several write buffers long.
func TestWriteSnapshotMatchesWholeEncoder(t *testing.T) {
	d := mustDoc(t, `<site><people>`+strings.Repeat(`<person id="p1"><name>Ann &amp; co</name><x><name>deep</name></x></person><person id="p2"><name>Bob</name></person>`, 200)+`</people><b/></site>`)
	longest := 0
	for _, src := range []string{
		`//person{ID,val}//name{ID,cont}`,
		`/site{ID}/people{ID}/person{ID}[/@id{ID,val}]//name{ID,val,cont}`,
		`//b{ID,cont}`,
		`//nothing{ID}`,
	} {
		p := pattern.MustParse(src)
		v := NewMaterializedView(p, algebra.Materialize(d, p))
		want := encodeSnapshotWhole(v)
		if got := EncodeSnapshot(v); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeSnapshot differs from the one-pass encoding (%d bytes)", src, len(want))
		}
		longest = max(longest, len(want))
	}
	if longest < 3*4096 {
		t.Fatalf("longest image is %d bytes: no case crossed a write buffer", longest)
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("bogus")); err == nil {
		t.Fatal("expected magic error")
	}
	p := pattern.MustParse(`//a{ID}`)
	d := mustDoc(t, `<a/>`)
	v := NewMaterializedView(p, algebra.Materialize(d, p))
	data := EncodeSnapshot(v)
	for cut := len(snapshotMagic); cut < len(data); cut++ {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncated snapshot at %d decoded", cut)
		}
	}
}

// TestConcurrentItemsDuringMutation hammers the live read entry points
// (Items, Count, Labels) from several goroutines while the main goroutine
// inserts and deletes subtrees — the snapshot-serving scenario where epoch
// readers and the single writer share one store. Before the store-wide
// RWMutex this was a data race on the relation map and slice headers; run
// under -race it also re-checks that a slice retained mid-read keeps its
// original contents across the mutation that follows it.
func TestConcurrentItemsDuringMutation(t *testing.T) {
	d := mustDoc(t, `<a><c><b>1</b><b>2</b></c><c><b>3</b></c></a>`)
	s := New(d)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Retain a slice, snapshot its IDs, re-read the store (racing
				// with the writer), then verify the retained slice is intact.
				held := s.Items("b")
				ids := make([]string, len(held))
				for i, it := range held {
					ids[i] = it.ID.Key()
				}
				_ = s.Count("#text")
				_ = s.Items("*")
				_ = s.Labels()
				for i, it := range held {
					if it.ID.Key() != ids[i] {
						panic("retained Items slice mutated mid-read")
					}
				}
			}
		}()
	}

	forestSrc := `<c><b>9</b><b>8</b></c>`
	for i := 0; i < 200; i++ {
		forest, err := xmltree.ParseForest(forestSrc)
		if err != nil {
			t.Fatal(err)
		}
		attached, err := d.ApplyInsert(d.Root, forest[0])
		if err != nil {
			t.Fatal(err)
		}
		s.AddSubtree(attached)
		if _, err := d.ApplyDelete(attached); err != nil {
			t.Fatal(err)
		}
		s.RemoveSubtree(attached)
	}
	close(stop)
	wg.Wait()
	if got := s.Count("b"); got != 3 {
		t.Fatalf("|R_b| = %d after balanced insert/delete churn, want 3", got)
	}
}
