package store

import (
	"slices"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
)

// View is a materialized view: a tree pattern plus its stored rows keyed by
// row identity, each with a derivation count. A stored row's Entries are
// immutable once in the view: Get, Each and Rows lend them out as they are,
// and Replace refreshes a copy.
type View struct {
	Pattern *pattern.Pattern
	byKey   map[string]int
	rows    []algebra.Row // live rows plus tombstones (Count<=0 slots reused)
	size    int
	gen     uint64 // bumped by every change to the rows; see Generation
	keyBuf  []byte // reused row-key scratch; View is not safe for concurrent mutation
}

// NewView creates an empty materialized view over p.
func NewView(p *pattern.Pattern) *View {
	return &View{Pattern: p, byKey: make(map[string]int)}
}

// NewMaterializedView creates a view and fills it with rows.
func NewMaterializedView(p *pattern.Pattern, rows []algebra.Row) *View {
	v := NewView(p)
	for _, r := range rows {
		v.Upsert(r)
	}
	return v
}

// Len returns the number of live rows.
func (v *View) Len() int { return v.size }

// Generation changes whenever the view's rows do: two calls that return the
// same number bracket a span in which Rows would have answered the same.
// Epoch publication uses it to hand an unmoved view's rows on to the next
// epoch instead of copying them again.
func (v *View) Generation() uint64 { return v.gen }

// Get returns the row with the given key and whether it exists.
func (v *View) Get(key string) (algebra.Row, bool) {
	if i, ok := v.byKey[key]; ok && v.rows[i].Count > 0 {
		return v.rows[i], true
	}
	return algebra.Row{}, false
}

// Upsert adds the row's derivation count to the stored row with the same
// identity, inserting it if absent. It returns true when the row is new.
// The probe key is built in a reused buffer; a string is only materialized
// for genuinely new rows.
func (v *View) Upsert(r algebra.Row) bool {
	v.gen++
	v.keyBuf = r.AppendKey(v.keyBuf[:0])
	if i, ok := v.byKey[string(v.keyBuf)]; ok {
		if v.rows[i].Count <= 0 {
			v.rows[i] = r
			v.size++
			return true
		}
		v.rows[i].Count += r.Count
		return false
	}
	v.byKey[string(v.keyBuf)] = len(v.rows)
	v.rows = append(v.rows, r)
	v.size++
	return true
}

// DecrementBy lowers the derivation count of the row with the given key by
// n, removing the row when the count reaches zero. It reports whether the
// row existed and whether it was removed.
func (v *View) DecrementBy(key string, n int) (existed, removed bool) {
	i, ok := v.byKey[key]
	if !ok || v.rows[i].Count <= 0 {
		return false, false
	}
	v.gen++
	v.rows[i].Count -= n
	if v.rows[i].Count <= 0 {
		v.rows[i].Count = 0
		v.size--
		return true, true
	}
	return true, false
}

// Remove deletes the row with the given key outright.
func (v *View) Remove(key string) bool {
	i, ok := v.byKey[key]
	if !ok || v.rows[i].Count <= 0 {
		return false
	}
	v.gen++
	v.rows[i].Count = 0
	v.size--
	return true
}

// Replace overwrites the stored row with the same identity key (used by the
// tuple-modification algorithms to refresh val/cont without touching the
// derivation count). update is handed the row with a private copy of its
// Entries, so rows handed out earlier keep the values they had.
func (v *View) Replace(key string, update func(*algebra.Row)) bool {
	i, ok := v.byKey[key]
	if !ok || v.rows[i].Count <= 0 {
		return false
	}
	v.gen++
	v.rows[i].Entries = slices.Clone(v.rows[i].Entries)
	update(&v.rows[i])
	return true
}

// Each calls f for every live row; f must not mutate the view.
func (v *View) Each(f func(algebra.Row) bool) {
	for i := range v.rows {
		if v.rows[i].Count > 0 {
			if !f(v.rows[i]) {
				return
			}
		}
	}
}

// Rows returns the live rows sorted in the order dictated by the IDs of all
// bindings, as the paper's s operator specifies. The slice is the caller's;
// the rows' Entries are the view's own and must not be written.
func (v *View) Rows() []algebra.Row {
	out := make([]algebra.Row, 0, v.size)
	v.Each(func(r algebra.Row) bool {
		out = append(out, r)
		return true
	})
	algebra.SortRows(out)
	return out
}

// EqualRows reports whether the view's live rows exactly match want
// (entries, values, contents and derivation counts), which must be sorted.
func (v *View) EqualRows(want []algebra.Row) bool {
	got := v.Rows()
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Count != want[i].Count || len(got[i].Entries) != len(want[i].Entries) {
			return false
		}
		for j := range got[i].Entries {
			a, b := got[i].Entries[j], want[i].Entries[j]
			if a.NodeIdx != b.NodeIdx || !a.ID.Equal(b.ID) || a.Val != b.Val || a.Cont != b.Cont {
				return false
			}
		}
	}
	return true
}
