// Package algebra implements the paper's logical algebra and its physical
// operators: canonical-relation scans, selections, projections, duplicate
// elimination with derivation counts, sorts, and Dewey-based structural
// joins. Tuples range over tree-pattern nodes; blocks are intermediate
// relations whose columns are identified by pattern-node indexes, which is
// what lets snowcap materializations be reused as pre-joined inputs.
package algebra

import (
	"sort"
	"strings"

	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Item is one binding of a pattern node: the matched XML node's structural
// ID plus (when available) the live node, used to evaluate value predicates
// and to materialize val/cont on projection. Node may be nil for standalone
// data (e.g. tuples read back from a snapshot); ID is always set.
type Item struct {
	ID   dewey.ID
	Node *xmltree.Node
}

// Tuple is a row over some set of pattern nodes, with a derivation count.
type Tuple struct {
	Items []Item
	Count int
}

// Block is an intermediate relation: Cols[i] names the pattern-node index
// bound by column i of every tuple.
type Block struct {
	Cols   []int
	Tuples []Tuple
}

// ColOf returns the column position binding pattern node idx, or -1.
func (b Block) ColOf(idx int) int {
	for i, c := range b.Cols {
		if c == idx {
			return i
		}
	}
	return -1
}

// SingleColumn builds a one-column block over pattern node idx from items,
// each with derivation count 1. A tuple's Items aliases its element of items
// (cap-clamped) rather than copying it: inputs are lent and immutable, and
// whatever keeps a tuple past the join it feeds — StructuralJoin's emit,
// NormalizeColumns, Mat.AddBlock — copies.
func SingleColumn(idx int, items []Item) Block {
	b := Block{Cols: []int{idx}}
	b.Tuples = make([]Tuple, len(items))
	for i := range items {
		b.Tuples[i] = Tuple{Items: items[i : i+1 : i+1], Count: 1}
	}
	return b
}

// Filter applies the pattern node's value predicate (if any) to items — the
// σ of the paper's algebraic view form. Items lacking a live node resolve
// through doc; unresolvable items are dropped when a predicate is present.
func Filter(items []Item, pn *pattern.Node, doc *xmltree.Document) []Item {
	if !pn.HasPred {
		return items
	}
	out := make([]Item, 0, len(items))
	for _, it := range items {
		n := it.Node
		if n == nil && doc != nil {
			n = doc.NodeByID(it.ID)
		}
		if n != nil && n.StringValue() == pn.PredVal {
			out = append(out, it)
		}
	}
	return out
}

// Row is a materialized view tuple: one entry per stored pattern node, in
// ascending pattern-node-index order, standalone (no live node pointers).
type Row struct {
	Entries []RowEntry
	Count   int
}

// RowEntry is the stored image of one pattern node binding.
type RowEntry struct {
	NodeIdx int // pattern node index
	ID      dewey.ID
	Val     string // filled iff the node stores val
	Cont    string // filled iff the node stores cont
}

// Key returns the row's identity: the concatenated ID keys of its entries.
// Two embeddings that agree on all stored nodes produce the same key and
// their derivation counts accumulate. The IDs' cached keys make this a
// single exact-size allocation; dedup loops that only probe should use
// AppendKey with a reused buffer instead.
func (r Row) Key() string {
	n := len(r.Entries)
	for _, e := range r.Entries {
		n += len(e.ID.Key())
	}
	var b strings.Builder
	b.Grow(n)
	for _, e := range r.Entries {
		b.WriteString(e.ID.Key())
		b.WriteByte(0xFF)
	}
	return b.String()
}

// AppendKey appends the row's identity key to buf and returns the extended
// slice, letting hot dedup paths build map-probe keys without allocating.
func (r Row) AppendKey(buf []byte) []byte {
	for _, e := range r.Entries {
		buf = append(buf, e.ID.Key()...)
		buf = append(buf, 0xFF)
	}
	return buf
}

// ProjectStored projects full-width tuples onto the pattern's stored nodes,
// materializing val/cont where annotated, eliminating duplicates and
// summing derivation counts (the π·δ of the paper's algebraic semantics).
// The result is sorted in the order dictated by the IDs of all stored
// bindings (the paper's final s operator).
func ProjectStored(p *pattern.Pattern, tuples []Tuple, doc *xmltree.Document) []Row {
	stored := p.StoredIndexes()
	return ProjectOnto(p, stored, tuples, doc)
}

// ProjectOnto projects full- or partial-width tuples onto the given pattern
// node indexes. The input tuples' blocks must bind every requested index.
func ProjectOnto(p *pattern.Pattern, indexes []int, tuples []Tuple, doc *xmltree.Document) []Row {
	b := Block{Cols: make([]int, p.Size())}
	for i := range b.Cols {
		b.Cols[i] = i
	}
	b.Tuples = tuples
	return ProjectBlock(p, b, indexes, doc)
}

// ProjectBlock projects a block onto the given pattern node indexes,
// deduplicating and count-summing.
func ProjectBlock(p *pattern.Pattern, b Block, indexes []int, doc *xmltree.Document) []Row {
	return projectBlock(p, b, indexes, doc, ProjectCounters{})
}

func projectBlock(p *pattern.Pattern, b Block, indexes []int, doc *xmltree.Document, pc ProjectCounters) []Row {
	cols := make([]int, len(indexes))
	for i, idx := range indexes {
		c := b.ColOf(idx)
		if c < 0 {
			panic("algebra: projection onto unbound pattern node")
		}
		cols[i] = c
	}
	byKey := make(map[string]int, len(b.Tuples))
	var rows []Row
	var keyBuf []byte
	for _, t := range b.Tuples {
		row := Row{Entries: make([]RowEntry, len(indexes)), Count: t.Count}
		for i, idx := range indexes {
			it := t.Items[cols[i]]
			e := RowEntry{NodeIdx: idx, ID: it.ID}
			pn := p.Nodes[idx]
			if pn.Store.Has(pattern.StoreVal) || pn.Store.Has(pattern.StoreCont) {
				n := it.Node
				if n == nil && doc != nil {
					n = doc.NodeByID(it.ID)
				}
				if n != nil {
					if pn.Store.Has(pattern.StoreVal) {
						e.Val = n.StringValue()
					}
					if pn.Store.Has(pattern.StoreCont) {
						e.Cont = n.Content()
					}
				}
			}
			row.Entries[i] = e
		}
		keyBuf = row.AppendKey(keyBuf[:0])
		if at, ok := byKey[string(keyBuf)]; ok {
			rows[at].Count += row.Count
			pc.Merged.Inc()
		} else {
			byKey[string(keyBuf)] = len(rows)
			rows = append(rows, row)
		}
	}
	pc.Rows.Add(int64(len(rows)))
	SortRows(rows)
	return rows
}

// SortRows orders rows by the document order of their bindings, column by
// column.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		return CompareRows(rows[i], rows[j]) < 0
	})
}

// CompareRows orders rows entry-wise by ID document order.
func CompareRows(a, b Row) int {
	n := len(a.Entries)
	if len(b.Entries) < n {
		n = len(b.Entries)
	}
	for i := 0; i < n; i++ {
		if c := a.Entries[i].ID.Compare(b.Entries[i].ID); c != 0 {
			return c
		}
	}
	return len(a.Entries) - len(b.Entries)
}
