// Package algebra implements the paper's logical algebra and its physical
// operators: canonical-relation scans, selections, projections, duplicate
// elimination with derivation counts, sorts, and Dewey-based structural
// joins. A canonical relation is a slice of Items; every other relation is
// a Block, kept in columns: its columns are identified by pattern-node
// indexes, which is what lets snowcap materializations be reused as
// pre-joined inputs, and a tuple is a stripe of IDs and a count, not an
// object of its own. A view's projected tuple, a Row, is packed the same
// way: one array of cells holding its stored nodes' ID keys and images,
// which the pattern's Shape tells apart.
package algebra

import (
	"slices"
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
// product of their counts. Its arrays are taken once, to size, from s, and
// it has Nodes exactly when either input has them.
func (s *Scratch) joinPairs(left, right Block, pairs []int) Block {
	n, w := len(pairs)/2, len(left.Cols)+len(right.Cols)
	out := Block{
		Cols:   append(append(take(s.intSlab(), w), left.Cols...), right.Cols...),
		IDs:    take(s.idSlab(), n*w),
		Counts: take(s.intSlab(), n),
	}
	if left.Nodes != nil || right.Nodes != nil {
		out.Nodes = take(s.nodeSlab(), n*w)
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
func SingleColumn(idx int, items []Item) Block { return (*Scratch)(nil).SingleColumn(idx, items) }

// SingleColumn is the package's SingleColumn with the block's arrays taken
// from s.
func (s *Scratch) SingleColumn(idx int, items []Item) Block {
	n := len(items)
	b := Block{
		Cols:   append(take(s.intSlab(), 1), idx),
		IDs:    take(s.idSlab(), n)[:n],
		Nodes:  take(s.nodeSlab(), n)[:n],
		Counts: take(s.intSlab(), n)[:n],
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
	return (*Scratch)(nil).Filter(items, pn, doc)
}

// Filter is the package's Filter with the items that pass taken from s,
// capped at their length.
func (s *Scratch) Filter(items []Item, pn *pattern.Node, doc *xmltree.Document) []Item {
	if !pn.HasPred {
		return items
	}
	out := take(s.itemSlab(), len(items))
	for _, it := range items {
		n := it.Node
		if n == nil && doc != nil {
			n = doc.NodeByID(it.ID)
		}
		if n != nil && n.StringValue() == pn.PredVal {
			out = append(out, it)
		}
	}
	return slices.Clip(out)
}

// Row is a materialized view tuple, standalone (no live node pointers):
// one exact-size array of cells laid out by its view's Shape, and a
// derivation count. Its first w cells are the ID keys of the view's w
// stored nodes, in ascending pattern-node order; then come the images those
// nodes store, for each node in the same order its val before its cont,
// and only for the annotations the pattern has. A row is 32 bytes, what a
// dewey.Run leaf holds and copies per element. Cells are never written once
// a view holds the row: Set writes only a row of its caller's own (Pack's,
// or Clone's).
type Row struct {
	cells []string
	Count int
}

// ID returns the ID bound by the row's i-th stored node, i below its
// shape's Width: the first cells are keys, so reading an ID needs no shape.
func (r Row) ID(i int) dewey.ID { return dewey.FromKey(r.cells[i]) }

// Clone returns the row with cells of its own.
func (r Row) Clone() Row {
	r.cells = slices.Clone(r.cells)
	return r
}

// Equal reports whether two rows of one shape bind the same nodes, store the
// same images and have the same derivation count.
func (r Row) Equal(o Row) bool { return r.Count == o.Count && slices.Equal(r.cells, o.cells) }

// RowEntry is one stored node's binding unpacked from a row (Shape.Entry),
// or to be packed into one (Shape.Pack): the value readers, encoders and
// projections handle, never what a view holds.
type RowEntry struct {
	NodeIdx int // pattern node index
	ID      dewey.ID
	Val     string // filled iff the node stores val
	Cont    string // filled iff the node stores cont
}

// Shape is the layout of a pattern's rows: which pattern node each ID cell
// binds, and which cells hold the images it stores. It is built once per
// view, which every holder of the view's rows (its store.View, its epochs,
// a rewrite plan over it) points at, and only read after.
type Shape struct {
	nodes []shapeNode
	cells int // cells in a row: len(nodes) keys, then the images
}

// shapeNode is one stored pattern node: its index, and the cells of its val
// and cont, or 0 for an image the node does not store (cell 0 is a key).
type shapeNode struct{ idx, val, cont int }

// NewShape returns the layout of p's rows: its stored nodes, with the
// images their store annotations name. Its holders share it by pointer.
func NewShape(p *pattern.Pattern) *Shape {
	var buf [64]int // a pattern has at most 64 nodes
	stored := buf[:0]
	for i, n := range p.Nodes {
		if n.Store != 0 {
			stored = append(stored, i)
		}
	}
	return shapeOf(p, stored)
}

// shapeOf lays out rows projected onto the given pattern nodes, ascending.
func shapeOf(p *pattern.Pattern, indexes []int) *Shape {
	s := &Shape{nodes: make([]shapeNode, len(indexes)), cells: len(indexes)}
	for i, idx := range indexes {
		n, st := shapeNode{idx: idx}, p.Nodes[idx].Store
		if st.Has(pattern.StoreVal) {
			n.val, s.cells = s.cells, s.cells+1
		}
		if st.Has(pattern.StoreCont) {
			n.cont, s.cells = s.cells, s.cells+1
		}
		s.nodes[i] = n
	}
	return s
}

// Width returns w, the number of stored nodes a row binds.
func (s *Shape) Width() int { return len(s.nodes) }

// Pack returns the row of entries, one per stored node in order, with the
// given derivation count: one allocation, the row's cells.
func (s *Shape) Pack(entries []RowEntry, count int) Row {
	r := Row{cells: make([]string, s.cells), Count: count}
	for i := range s.nodes {
		s.Set(r, i, entries[i])
	}
	return r
}

// Set writes entry i of r, its ID and the images its node stores; r's
// cells must be the caller's own.
func (s *Shape) Set(r Row, i int, e RowEntry) {
	n := s.nodes[i]
	r.cells[i] = e.ID.Key()
	if n.val > 0 {
		r.cells[n.val] = e.Val
	}
	if n.cont > 0 {
		r.cells[n.cont] = e.Cont
	}
}

// Entry unpacks entry i of r: by value, so a reader's loop allocates
// nothing.
func (s *Shape) Entry(r Row, i int) RowEntry {
	n := s.nodes[i]
	e := RowEntry{NodeIdx: n.idx, ID: r.ID(i)}
	if n.val > 0 {
		e.Val = r.cells[n.val]
	}
	if n.cont > 0 {
		e.Cont = r.cells[n.cont]
	}
	return e
}

// Compare orders rows by the document order of their bindings, node by
// node: the paper's s operator. Images do not take part.
func (s *Shape) Compare(a, b Row) int {
	for i := range s.nodes {
		if c := strings.Compare(a.cells[i], b.cells[i]); c != 0 {
			return c
		}
	}
	return 0
}

// ProjectStored projects a block binding every node of the pattern onto
// its stored nodes, materializing val/cont where annotated, eliminating
// duplicates and summing derivation counts (the π·δ of the paper's
// algebraic semantics). The result is sorted in the order dictated by the
// IDs of all stored bindings (the paper's final s operator).
func ProjectStored(p *pattern.Pattern, b Block, doc *xmltree.Document) []Row {
	return (*Scratch)(nil).ProjectCounted(NewShape(p), b, doc, ProjectCounters{})
}

// ProjectCounted is the package's ProjectCounted. Each tuple's key cells
// are gathered and the tuples put in the order of those, so duplicates are
// neighbours: a tuple that merges into the row before it allocates
// nothing, and a new row allocates its cells once, to size, which is all a
// view keeps of a projection. The key cells, the order and the slice of
// rows are taken from sc.
func (sc *Scratch) ProjectCounted(s *Shape, b Block, doc *xmltree.Document, pc ProjectCounters) []Row {
	w, n := len(s.nodes), b.Len()
	cols := sc.intsOf(w)
	for i, sn := range s.nodes {
		c := b.ColOf(sn.idx)
		if c < 0 {
			panic("algebra: projection onto unbound pattern node")
		}
		cols[i] = c
	}
	keys := take(sc.cellSlab(), n*w)
	for t := range n {
		ids := b.Tuple(t)
		for _, c := range cols {
			keys = append(keys, ids[c].Key())
		}
	}
	key := func(t int) []string { return keys[t*w : (t+1)*w] }
	order := sc.intsOf(n)
	for t := range order {
		order[t] = t
	}
	slices.SortFunc(order, func(x, y int) int { return slices.Compare(key(x), key(y)) })
	rows := take(sc.rowSlab(), n)
	for k, t := range order {
		if k > 0 && slices.Equal(key(order[k-1]), key(t)) {
			rows[len(rows)-1].Count += b.Counts[t]
			pc.Merged.Inc()
			continue
		}
		r := Row{cells: make([]string, s.cells), Count: b.Counts[t]}
		copy(r.cells, key(t))
		for i, sn := range s.nodes {
			if sn.val == 0 && sn.cont == 0 {
				continue
			}
			nd := b.node(t, cols[i])
			if nd == nil && doc != nil {
				nd = doc.NodeByID(b.Tuple(t)[cols[i]])
			}
			if nd != nil && sn.val > 0 {
				r.cells[sn.val] = nd.StringValue()
			}
			if nd != nil && sn.cont > 0 {
				r.cells[sn.cont] = nd.Content()
			}
		}
		rows = append(rows, r)
	}
	pc.Rows.Add(int64(len(rows)))
	if len(rows) == 0 {
		return nil
	}
	return rows
}
