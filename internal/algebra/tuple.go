// Package algebra implements the paper's logical algebra and its physical
// operators: canonical-relation scans, selections, projections, duplicate
// elimination with derivation counts, sorts, and Dewey-based structural
// joins. A canonical relation is a slice of Items; every other relation is
// a Block, kept in columns: its columns are identified by pattern-node
// indexes, which is what lets snowcap materializations be reused as
// pre-joined inputs, and a tuple is a stripe of IDs and a count, not an
// object of its own.
package algebra

import (
	"slices"
	"sort"
	"strings"

	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// Item is one binding of a pattern node as a canonical relation holds it —
// the element of Inputs, of Store.Items and of Filter's and SingleColumn's
// input: the matched XML node's structural ID plus (when available) the
// live node, used to evaluate value predicates and to materialize val/cont
// on projection. Node may be nil for standalone data; ID is always set.
type Item struct {
	ID   dewey.ID
	Node *xmltree.Node
}

// Block is an intermediate relation in columns. Cols[i] names the
// pattern-node index bound by column i; with w = len(Cols), tuple t's
// bindings are the stripe IDs[t·w:(t+1)·w] and its derivation count is
// Counts[t]. Nodes is nil, or parallel to IDs with a nil entry where a
// binding has no live node: a block built from items has them, a
// materialized snowcap (store.Mat) has none, and a join's output has Nodes
// exactly when one of its inputs had them, so a ∆ binding keeps its live
// node through a join with a snowcap.
type Block struct {
	Cols   []int
	IDs    []dewey.ID
	Nodes  []*xmltree.Node
	Counts []int
}

// Len returns the number of tuples.
func (b Block) Len() int { return len(b.Counts) }

// Tuple returns tuple t's bindings, column by column. The stripe is lent,
// cap-clamped: read-only.
func (b Block) Tuple(t int) []dewey.ID {
	w := len(b.Cols)
	return b.IDs[t*w : (t+1)*w : (t+1)*w]
}

// node returns the live node of tuple t's binding in column c, or nil.
func (b Block) node(t, c int) *xmltree.Node {
	if b.Nodes == nil {
		return nil
	}
	return b.Nodes[t*len(b.Cols)+c]
}

// joinPairs is the output of a join of left and right: for each pair
// (l, r) in pairs, tuple l of left followed by tuple r of right, with the
// product of their counts. Its arrays are allocated once, to size, and it
// has Nodes exactly when either input has them.
func joinPairs(left, right Block, pairs []int) Block {
	n, w := len(pairs)/2, len(left.Cols)+len(right.Cols)
	out := Block{Cols: slices.Concat(left.Cols, right.Cols), IDs: make([]dewey.ID, 0, n*w), Counts: make([]int, 0, n)}
	if left.Nodes != nil || right.Nodes != nil {
		out.Nodes = make([]*xmltree.Node, 0, n*w)
	}
	for k := 0; k < len(pairs); k += 2 {
		l, r := pairs[k], pairs[k+1]
		out.IDs = append(append(out.IDs, left.Tuple(l)...), right.Tuple(r)...)
		if out.Nodes != nil {
			out.Nodes = right.appendNodes(left.appendNodes(out.Nodes, l), r)
		}
		out.Counts = append(out.Counts, left.Counts[l]*right.Counts[r])
	}
	return out
}

// appendNodes appends tuple t's live nodes to dst, or a nil for each column
// when b keeps none.
func (b Block) appendNodes(dst []*xmltree.Node, t int) []*xmltree.Node {
	w := len(b.Cols)
	if b.Nodes == nil {
		return append(dst, make([]*xmltree.Node, w)...)
	}
	return append(dst, b.Nodes[t*w:(t+1)*w]...)
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
// each with derivation count 1 and its live node kept.
func SingleColumn(idx int, items []Item) Block {
	b := Block{
		Cols:   []int{idx},
		IDs:    make([]dewey.ID, len(items)),
		Nodes:  make([]*xmltree.Node, len(items)),
		Counts: make([]int, len(items)),
	}
	for i, it := range items {
		b.IDs[i], b.Nodes[i], b.Counts[i] = it.ID, it.Node, 1
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

// ProjectStored projects a block binding every node of the pattern onto
// its stored nodes, materializing val/cont where annotated, eliminating
// duplicates and summing derivation counts (the π·δ of the paper's
// algebraic semantics). The result is sorted in the order dictated by the
// IDs of all stored bindings (the paper's final s operator).
func ProjectStored(p *pattern.Pattern, b Block, doc *xmltree.Document) []Row {
	return projectBlock(p, b, p.StoredIndexes(), doc, ProjectCounters{})
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
	byKey := make(map[string]int, b.Len())
	var rows []Row
	var keyBuf []byte
	for t := range b.Len() {
		row := Row{Entries: make([]RowEntry, len(indexes)), Count: b.Counts[t]}
		ids := b.Tuple(t)
		for i, idx := range indexes {
			e := RowEntry{NodeIdx: idx, ID: ids[cols[i]]}
			pn := p.Nodes[idx]
			if pn.Store.Has(pattern.StoreVal) || pn.Store.Has(pattern.StoreCont) {
				n := b.node(t, cols[i])
				if n == nil && doc != nil {
					n = doc.NodeByID(e.ID)
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
