package store

import (
	"slices"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// View is a materialized view: a tree pattern plus its stored rows, each
// with a derivation count, kept in the order the paper's s operator
// dictates — by the IDs of their bindings, column by column
// (algebra.CompareRows) — so that readers enumerate them as they lie and a
// row is found by binary search on a probe row's IDs. A stored row's Entries
// are immutable once in the view: Get, Each, Rows and Freeze lend them out
// as they are, and Replace refreshes a copy.
type View struct {
	Pattern *pattern.Pattern
	rows    dewey.Run[algebra.Row]
}

// Rows is a view's rows as an epoch holds them: chunks in order, each in
// order, none ever written again.
type Rows = dewey.Chunks[algebra.Row]

// NewView creates an empty materialized view over p.
func NewView(p *pattern.Pattern) *View {
	return &View{Pattern: p, rows: dewey.NewRun(algebra.CompareRows)}
}

// NewMaterializedView creates a view and fills it with rows.
func NewMaterializedView(p *pattern.Pattern, rows []algebra.Row) *View {
	v := NewView(p)
	for _, r := range rows {
		v.Upsert(r)
	}
	return v
}

// Len returns the number of rows.
func (v *View) Len() int { return v.rows.Len() }

// Get returns the stored row binding the same nodes as probe.
func (v *View) Get(probe algebra.Row) (algebra.Row, bool) { return v.rows.Get(probe) }

// Upsert adds the row's derivation count to the stored row with the same
// bindings, inserting it if absent. It returns true when the row is new.
func (v *View) Upsert(r algebra.Row) bool {
	if old, ok := v.rows.Get(r); ok {
		r = algebra.Row{Entries: old.Entries, Count: old.Count + r.Count}
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
// the derivation count). update is handed the row with a private copy of
// its Entries, so rows handed out earlier keep the values they had.
func (v *View) Replace(probe algebra.Row, update func(*algebra.Row)) bool {
	r, ok := v.rows.Get(probe)
	if !ok {
		return false
	}
	r.Entries = slices.Clone(r.Entries)
	update(&r)
	v.rows.Put(r)
	return true
}

// Each calls f for every row, in order; f must not mutate the view.
func (v *View) Each(f func(algebra.Row) bool) { v.rows.Chunks().Each(f) }

// Freeze returns the rows as they stand, for good and in O(1): later
// changes to the view copy what they touch. moved reports whether the view
// changed since the Freeze before; if not, this is what that one returned.
func (v *View) Freeze() (rows Rows, moved bool) { return v.rows.Freeze() }

// Rows returns the rows as one slice, the caller's; the rows' Entries are
// the view's own and must not be written.
func (v *View) Rows() []algebra.Row {
	return v.rows.Chunks().AppendTo(nil)
}

// EqualRows reports whether the view's rows exactly match want (entries,
// values, contents and derivation counts), which must be sorted.
func (v *View) EqualRows(want []algebra.Row) bool {
	if v.Len() != len(want) {
		return false
	}
	i, equal := 0, true
	v.Each(func(got algebra.Row) bool {
		w := want[i]
		i++
		equal = got.Count == w.Count && slices.EqualFunc(got.Entries, w.Entries, func(a, b algebra.RowEntry) bool {
			return a.NodeIdx == b.NodeIdx && a.ID.Equal(b.ID) && a.Val == b.Val && a.Cont == b.Cont
		})
		return equal
	})
	return equal
}
