package store

import (
	"xivm/internal/algebra"
	"xivm/internal/dewey"
)

// View is a materialized view: a tree pattern's stored rows, each with a
// derivation count, kept in the order the paper's s operator dictates — by
// the IDs of their bindings, node by node (Shape.Compare) — so that readers
// enumerate them as they lie and a row is found by binary search on a probe
// row's IDs. Every row is laid out by the pattern's shape (RowShape), which
// the view shares with its maker (NewViewOf) or built for itself. A stored row's
// cells are immutable once in the view: Get, Each, Rows and Freeze lend
// them out as they are, and Replace refreshes a copy.
type View struct {
	shape *algebra.Shape
	rows  dewey.Run[algebra.Row]
}

// Rows is a view's rows as an epoch holds them: the frozen root of the
// view's run, whose leaves hold the rows in order, none ever written again.
type Rows = *dewey.Chunks[algebra.Row]

// NewViewOf creates a view whose rows are laid out by s, its maker's, and
// fills it with rows of that shape.
func NewViewOf(s *algebra.Shape, rows []algebra.Row) *View {
	v := &View{shape: s, rows: dewey.NewRun(s.Compare)}
	for _, r := range rows {
		v.Upsert(r)
	}
	return v
}

// Len returns the number of rows.
func (v *View) Len() int { return v.rows.Len() }

// Upsert adds the row's derivation count to the stored row with the same
// bindings, inserting it if absent. It returns true when the row is new.
func (v *View) Upsert(r algebra.Row) bool {
	if old, ok := v.rows.Get(r); ok {
		old.Count += r.Count
		r = old
	}
	return v.rows.Put(r)
}

// DecrementBy lowers the derivation count of the row binding the same nodes
// as probe by n, removing the row when the count reaches zero. It reports
// whether the row existed and whether it was removed.
func (v *View) DecrementBy(probe algebra.Row, n int) (existed, removed bool) {
	old, ok := v.rows.Get(probe)
	if !ok {
		return false, false
	}
	if old.Count -= n; old.Count <= 0 {
		return true, v.rows.Delete(old)
	}
	v.rows.Put(old)
	return true, false
}

// Remove deletes the row binding the same nodes as probe outright.
func (v *View) Remove(probe algebra.Row) bool { return v.rows.Delete(probe) }

// Replace overwrites the stored row binding the same nodes as probe (used
// by the tuple-modification algorithms to refresh val/cont without touching
// the derivation count). update is handed the row with cells of its own
// (Row.Clone), to write through Shape.Set, so rows handed out earlier keep
// the values they had.
func (v *View) Replace(probe algebra.Row, update func(algebra.Row)) bool {
	r, ok := v.rows.Get(probe)
	if !ok {
		return false
	}
	r = r.Clone()
	update(r)
	v.rows.Put(r)
	return true
}

// Each calls f for every row, in order; f must not mutate the view.
func (v *View) Each(f func(algebra.Row) bool) { v.rows.Chunks().Each(f) }

// RowShape returns the layout of the view's rows.
func (v *View) RowShape() *algebra.Shape { return v.shape }

// RowChunks returns the rows as they lie, in order, for reading until the
// view next changes.
func (v *View) RowChunks() Rows { return v.rows.Chunks() }

// Freeze returns the rows as they stand, for good and in O(1): later
// changes to the view copy what they touch. moved reports whether the view
// changed since the Freeze before; if not, this is what that one returned.
func (v *View) Freeze() (rows Rows, moved bool) { return v.rows.Freeze() }

// Rows returns the rows as one slice, the caller's; the rows' cells are
// the view's own and must not be written.
func (v *View) Rows() []algebra.Row {
	return v.rows.Chunks().AppendTo(nil)
}

// EqualRows reports whether the view's rows exactly match want (entries,
// values, contents and derivation counts), which must be sorted and laid
// out by the view's shape.
func (v *View) EqualRows(want []algebra.Row) bool {
	if v.Len() != len(want) {
		return false
	}
	i, equal := 0, true
	v.Each(func(got algebra.Row) bool {
		equal = got.Equal(want[i])
		i++
		return equal
	})
	return equal
}
