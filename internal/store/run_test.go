package store

import (
	"fmt"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// chunkRows is how many rows or tuples 2 KB holds, the run's chunk size.
const chunkRows = 2048 / int(unsafe.Sizeof(algebra.Row{}))

// TestChurnLeavesNoTombstones: a row or tuple that leaves the view or the
// lattice leaves no slot behind. 5,000 nodes are inserted and deleted one
// after the other, each with an ID of its own — what a tenant whose deleted
// nodes come back under fresh IDs does all day — and the backing storage
// ends within one chunk of what the survivors need.
func TestChurnLeavesNoTombstones(t *testing.T) {
	p := pattern.MustParse(`//a{ID}//b{ID}`)
	root := dewey.NewRoot("r")
	a := root.Child("a", dewey.OrdAt(0))
	pair := func(i int) (algebra.Row, algebra.Block) {
		b := a.Child("b", dewey.OrdAt(i))
		row := algebra.Row{Count: 1, Entries: []algebra.RowEntry{{NodeIdx: 0, ID: a}, {NodeIdx: 1, ID: b}}}
		blk := algebra.Block{Cols: []int{0, 1}, Tuples: []algebra.Tuple{{Count: 1, Items: []algebra.Item{{ID: a}, {ID: b}}}}}
		return row, blk
	}
	v, m := NewView(p), NewMat(p, p.FullMask())
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
		if m.RemoveUnderAny(dewey.NewCover([]dewey.ID{row.Entries[1].ID})) != 1 {
			t.Fatalf("tuple %d not removed", i)
		}
	}
	if v.Len() != live || m.Len() != live {
		t.Fatalf("%d rows and %d tuples survive, want %d of each", v.Len(), m.Len(), live)
	}
	held := 0
	for _, c := range v.rows.Chunks() {
		held += cap(c)
	}
	if held > live+chunkRows {
		t.Errorf("the view holds room for %d rows to store %d", held, live)
	}
	if cap(m.tups) > live+chunkRows {
		t.Errorf("the mat holds room for %d tuples to store %d", cap(m.tups), live)
	}
}

// TestFreezeAllocatesNothingPerRow: publishing a view allocates nothing
// and the change it publishes allocates by the chunk, so a view of ten
// thousand rows pays what a view of ten does.
func TestFreezeAllocatesNothingPerRow(t *testing.T) {
	p := pattern.MustParse(`//a{ID}`)
	root := dewey.NewRoot("r")
	row := func(i int) algebra.Row {
		return algebra.Row{Count: 1, Entries: []algebra.RowEntry{{NodeIdx: 0, ID: root.Child("a", dewey.OrdAt(i))}}}
	}
	var perEpoch []float64
	for _, n := range []int{10, 10_000} {
		v := NewView(p)
		for i := 0; i < n; i++ {
			v.Upsert(row(i))
		}
		rows, _ := v.Freeze()
		if got := testing.AllocsPerRun(20, func() {
			if again, moved := v.Freeze(); moved || len(again) != len(rows) || &again[0] != &rows[0] {
				t.Fatal("an unmoved view froze to something new")
			}
		}); got != 0 {
			t.Errorf("freezing %d unmoved rows allocates %v times", n, got)
		}
		next := n
		perEpoch = append(perEpoch, testing.AllocsPerRun(20, func() {
			v.Upsert(row(next))
			next++
			if rows, moved := v.Freeze(); !moved || rows.Len() != next {
				t.Fatalf("Freeze after a change returned %d of %d rows, moved=%v", rows.Len(), next, moved)
			}
		}))
	}
	if perEpoch[0] != perEpoch[1] {
		t.Errorf("a one-row epoch allocates %v times on ten rows and %v on ten thousand", perEpoch[0], perEpoch[1])
	}
}

// TestRowsOrderIsCompareRowsNotKeyOrder: rows lie in the order of their
// bindings' IDs, column by column. The byte order of their identity keys is
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
		want := algebra.Materialize(d, p)
		keyOrder := true
		for i := 1; i < len(want); i++ {
			if algebra.CompareRows(want[i-1], want[i]) >= 0 {
				t.Fatalf("%s: the oracle's rows are not in CompareRows order", tc.view)
			}
			keyOrder = keyOrder && want[i-1].Key() < want[i].Key()
		}
		if keyOrder {
			t.Fatalf("%s over %s: key order and CompareRows order agree; the fixture tells nothing", tc.view, tc.doc)
		}
		// Filled in every order, the view enumerates in the oracle's.
		for shift := range want {
			v := NewView(p)
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
				if got, ok := v.Get(r); !ok || got.Key() != r.Key() {
					t.Errorf("%s: row %v not found by its IDs", tc.view, r)
				}
			}
		}
	}
}
