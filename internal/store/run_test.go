package store

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// leafRows is how many rows or tuples 512 B holds, the most a run's leaf
// holds.
const leafRows = 512 / int(unsafe.Sizeof(algebra.Row{}))

// TestChurnLeavesNoTombstones: a row or tuple that leaves the view or the
// lattice leaves no slot behind. 5,000 nodes are inserted and deleted one
// after the other, each with an ID of its own — what a tenant whose deleted
// nodes come back under fresh IDs does all day — and the backing storage
// ends within one leaf of what the survivors need.
func TestChurnLeavesNoTombstones(t *testing.T) {
	p := pattern.MustParse(`//a{ID}//b{ID}`)
	root := dewey.NewRoot("r")
	a := root.Child("a", dewey.OrdAt(0))
	shape := algebra.NewShape(p)
	pair := func(i int) (algebra.Row, algebra.Block) {
		b := a.Child("b", dewey.OrdAt(i))
		row := shape.Pack([]algebra.RowEntry{{NodeIdx: 0, ID: a}, {NodeIdx: 1, ID: b}}, 1)
		blk := algebra.Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b}, Counts: []int{1}}
		return row, blk
	}
	v, m := NewViewOf(algebra.NewShape(p), nil), NewMat(p, p.FullMask())
	const live = 20
	for i := 0; i < live; i++ {
		row, blk := pair(i)
		v.Upsert(row)
		m.AddBlock(blk)
	}
	for i := live; i < live+5000; i++ {
		row, blk := pair(i)
		if !v.Upsert(row) || m.AddBlock(blk) != 1 {
			t.Fatalf("pair %d was not new", i)
		}
		if i%2 == 0 {
			v.Freeze() // some of the churn happens under readers
		}
		if _, removed := v.DecrementBy(row, 1); !removed {
			t.Fatalf("row %d not removed", i)
		}
		if m.RemoveIf(coverOf([]dewey.ID{row.ID(1)}).ContainsAny) != 1 {
			t.Fatalf("tuple %d not removed", i)
		}
	}
	if v.Len() != live || m.Len() != live {
		t.Fatalf("%d rows and %d tuples survive, want %d of each", v.Len(), m.Len(), live)
	}
	held := 0
	v.rows.Chunks().EachLeaf(func(leaf []algebra.Row) bool {
		held += cap(leaf)
		return true
	})
	if held > live+leafRows {
		t.Errorf("the view holds room for %d rows to store %d", held, live)
	}
	if cap(m.counts) > live+leafRows || cap(m.ids) > 2*(live+leafRows) {
		t.Errorf("the mat holds room for %d tuples (%d IDs) to store %d", cap(m.counts), cap(m.ids), live)
	}
}

// TestFreezeAllocatesNothingPerRow: publishing a view allocates nothing
// and the change it publishes allocates a leaf and the path above it, so a
// view of ten thousand rows pays what a view of ten does, and two
// allocations — a node and its children — for each interior level above its
// leaves.
func TestFreezeAllocatesNothingPerRow(t *testing.T) {
	p := pattern.MustParse(`//a{ID}`)
	root := dewey.NewRoot("r")
	shape := algebra.NewShape(p)
	row := func(i int) algebra.Row {
		return shape.Pack([]algebra.RowEntry{{NodeIdx: 0, ID: root.Child("a", dewey.OrdAt(i))}}, 1)
	}
	var perEpoch, levels []float64
	for _, n := range []int{10, 10_000} {
		v := NewViewOf(algebra.NewShape(p), nil)
		for i := 0; i < n; i++ {
			v.Upsert(row(i))
		}
		rows, _ := v.Freeze()
		if got := testing.AllocsPerRun(20, func() {
			if again, moved := v.Freeze(); moved || again != rows {
				t.Fatal("an unmoved view froze to something new")
			}
		}); got != 0 {
			t.Errorf("freezing %d unmoved rows allocates %v times", n, got)
		}
		levels = append(levels, float64(depth(rows)))
		next := n
		perEpoch = append(perEpoch, testing.AllocsPerRun(20, func() {
			v.Upsert(row(next))
			next++
			if rows, moved := v.Freeze(); !moved || rows.Len() != next {
				t.Fatalf("Freeze after a change returned %d of %d rows, moved=%v", rows.Len(), next, moved)
			}
		}))
	}
	if levels[0] != 0 || levels[1] < 2 {
		t.Fatalf("fixture: %v interior levels above the leaves", levels)
	}
	if perEpoch[1] > perEpoch[0]+2*levels[1] {
		t.Errorf("a one-row epoch allocates %v times on ten rows and %v on ten thousand under %v levels", perEpoch[0], perEpoch[1], levels[1])
	}
}

// depth returns how many interior levels lie above the leaves of rows
// loaded in order, whose interior nodes are full: 16 children each.
func depth(rows Rows) int {
	leaves := 0
	rows.EachLeaf(func([]algebra.Row) bool { leaves++; return true })
	d := 0
	for span := 1; span < leaves; span *= 16 {
		d++
	}
	return d
}

// TestRowsOrderIsCompareRowsNotKeyOrder: rows lie in the order of their
// bindings' IDs, node by node (Shape.Compare). The byte order of their identity keys is
// a different one — a key ends each ID with 0xFF, which sorts an ancestor's
// row after its descendant's — so nested same-label bindings tell the two
// apart.
func TestRowsOrderIsCompareRowsNotKeyOrder(t *testing.T) {
	for _, tc := range []struct{ doc, view string }{
		{`<a><a/></a>`, `//a{ID}`},
		{`<r><a><a><b/></a><b/></a></r>`, `//a{ID}//b{ID}`},
	} {
		p := pattern.MustParse(tc.view)
		d := mustDoc(t, tc.doc)
		want, shape := algebra.Materialize(d, p), algebra.NewShape(p)
		key := func(r algebra.Row) string { // each ID's key ended by 0xFF
			var b []byte
			for i := range shape.Width() {
				b = append(append(b, r.ID(i).Key()...), 0xFF)
			}
			return string(b)
		}
		keyOrder := true
		for i := 1; i < len(want); i++ {
			if shape.Compare(want[i-1], want[i]) >= 0 {
				t.Fatalf("%s: the oracle's rows are not in Shape.Compare order", tc.view)
			}
			keyOrder = keyOrder && key(want[i-1]) < key(want[i])
		}
		if keyOrder {
			t.Fatalf("%s over %s: key order and Shape.Compare order agree; the fixture tells nothing", tc.view, tc.doc)
		}
		// Filled in every order, the view enumerates in the oracle's.
		for shift := range want {
			v := NewViewOf(algebra.NewShape(p), nil)
			for i := range want {
				v.Upsert(want[(i+shift)%len(want)])
			}
			frozen, _ := v.Freeze()
			for name, got := range map[string][]algebra.Row{"Rows": v.Rows(), "Freeze": frozen.AppendTo(nil)} {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, filled from row %d: %s() = %v, want %v", tc.view, shift, name, got, want)
				}
			}
			for _, r := range want {
				if got, ok := v.Get(r); !ok || key(got) != key(r) {
					t.Errorf("%s: row %v not found by its IDs", tc.view, r)
				}
			}
		}
	}
}

// TestViewBytesPerRow holds a view's row to its IDs and images: a 32-byte
// header in a leaf and one exact-size array of cells, here two keys and a
// val (48 B). 10,000 rows of //a{ID}//b{ID,val} are packed and upserted in
// document order, as a materialization arrives; the IDs and values exist
// before the first reading, being the document's. This measures ~81 B a
// row (~84 under -race); a header pointing at an array of 56-byte entries
// of its own, as rows were laid out before, took ~145.
func TestViewBytesPerRow(t *testing.T) {
	const n = 10000
	p := pattern.MustParse(`//a{ID}//b{ID,val}`)
	root := dewey.NewRoot("r")
	entries := make([]algebra.RowEntry, 0, 2*n)
	for i := range n {
		a := root.Child("a", dewey.OrdAt(i))
		entries = append(entries, algebra.RowEntry{NodeIdx: 0, ID: a}, algebra.RowEntry{NodeIdx: 1, ID: a.Child("b", dewey.OrdAt(0)), Val: "v"})
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := NewViewOf(algebra.NewShape(p), nil)
	for i := range n {
		if !v.Upsert(v.shape.Pack(entries[2*i:2*i+2], 1)) {
			t.Fatalf("row %d was not new", i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRow := int(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d rows of width 2 with a val, %d B of live heap per row", n, perRow)
	if perRow > 96 {
		t.Errorf("a view holds %d B per row of width 2 with a val, budget 96", perRow)
	}
	runtime.KeepAlive(v)
	runtime.KeepAlive(entries)
}
