package core

import (
	"sort"
	"strings"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// IVMA re-implements the node-at-a-time incremental view maintenance
// algorithm of Sawires et al. (SIGMOD 2005) over our native store, as the
// paper does for its Section 6.6 comparison. Each node added or removed by
// an update is propagated by its own maintenance pass: the view pattern is
// re-evaluated with the single node pinned to each label-compatible pattern
// position, consulting the document for every other position. An insertion
// of a k-node subtree therefore costs k passes, where the bulk algebraic
// algorithms pay once.
type IVMA struct {
	Engine *Engine
}

// NewIVMA wraps an engine whose views will be maintained node-at-a-time.
// Between the document update and each node's own pass the store still
// holds the pre-update nodes by pointer and expects them to show the
// update, so IVMA runs only on a document that is never published
// (Engine.Snapshot), which the mutators edit in place.
func NewIVMA(e *Engine) *IVMA { return &IVMA{Engine: e} }

// ApplyStatement applies the statement to the document and propagates it to
// every view one node at a time, returning the time spent in propagation
// (excluding target lookup and the document update itself).
func (iv *IVMA) ApplyStatement(st *update.Statement) (time.Duration, error) {
	e := iv.Engine
	pul, err := update.ComputePUL(e.Doc, st)
	if err != nil {
		return 0, err
	}
	switch st.Kind {
	case update.Insert:
		applied, err := update.Apply(e.Doc, nil, pul)
		if err != nil {
			return 0, err
		}
		// Flatten the inserted subtrees into individual nodes, in document
		// order: IVMA sees a stream of single-node insertions.
		var nodes []*xmltree.Node
		for _, root := range applied.InsertedRoots {
			xmltree.Walk(root, func(n *xmltree.Node) bool {
				nodes = append(nodes, n)
				return true
			})
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID.Compare(nodes[j].ID) < 0 })
		start := time.Now()
		for _, n := range nodes {
			for _, mv := range e.Views {
				iv.propagateSingleInsert(mv, n)
			}
			e.Store.AddNode(n)
		}
		e.bumpVersion()
		return time.Since(start), nil
	default:
		applied, err := update.Apply(e.Doc, nil, pul)
		if err != nil {
			return 0, err
		}
		var nodes []*xmltree.Node
		for _, root := range applied.DeletedRoots {
			xmltree.Walk(root, func(n *xmltree.Node) bool {
				nodes = append(nodes, n)
				return true
			})
		}
		// Remove bottom-up: reverse document order.
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID.Compare(nodes[j].ID) > 0 })
		start := time.Now()
		for _, n := range nodes {
			for _, mv := range e.Views {
				iv.propagateSingleDelete(mv, n)
			}
			e.Store.RemoveNode(n)
		}
		e.bumpVersion()
		return time.Since(start), nil
	}
}

// propagateSingleInsert adds the view tuples contributed by exactly one new
// node (the canonical relations do not contain it yet).
func (iv *IVMA) propagateSingleInsert(mv *ManagedView, n *xmltree.Node) {
	for _, row := range iv.singleNodeRows(mv, n, false) {
		mv.View.Upsert(row)
	}
}

// propagateSingleDelete subtracts the view tuples one node carried (the
// canonical relations still contain it).
func (iv *IVMA) propagateSingleDelete(mv *ManagedView, n *xmltree.Node) {
	for _, row := range iv.singleNodeRows(mv, n, true) {
		mv.View.DecrementBy(row, row.Count)
	}
}

// singleNodeRows evaluates the view tuples that bind n in at least one
// pattern position, each counted exactly once, as the telescoping sum
//
//	Σ_i  (R′_1, …, R′_{i-1}, {n}, R_{i+1}, …, R_k)
//
// where R is the relation state without the pass's effect applied (for an
// insertion: before n joins the relations; for a deletion: while n is still
// in them) and R′ the state with it. Positions left of the pin read R′,
// positions right of it R, so a tuple binding n in several positions is
// produced only by the pin at its leftmost n-position — no tuple is counted
// twice, and none is missed (the old scheme read R everywhere and dropped
// "duplicates" the earlier pins could never have produced).
func (iv *IVMA) singleNodeRows(mv *ManagedView, n *xmltree.Node, deleting bool) []algebra.Row {
	e := iv.Engine
	p := mv.Pattern
	merged := store.NewView(p)
	base := e.Store.Inputs(p)
	for i, pn := range p.Nodes {
		if !labelAdmits(pn.Label, n) {
			continue
		}
		pinned := iv.pinItems(p, i, n)
		if len(pinned) == 0 {
			continue
		}
		in := make(algebra.Inputs, len(base))
		for k, v := range base {
			in[k] = v
		}
		in[i] = pinned
		for j := 0; j < i; j++ {
			if !labelAdmits(p.Nodes[j].Label, n) {
				continue
			}
			if deleting {
				in[j] = withoutID(in[j], n.ID)
			} else {
				in[j] = withItems(in[j], iv.pinItems(p, j, n))
			}
		}
		tuples := algebra.EvalPattern(p, in, e.Join())
		for _, row := range algebra.ProjectStored(p, tuples, e.Doc) {
			merged.Upsert(row)
		}
	}
	return merged.Rows()
}

// pinItems is the σ-filtered singleton input binding n at pattern position
// i, empty when n fails the position's predicates or root anchoring.
func (iv *IVMA) pinItems(p *pattern.Pattern, i int, n *xmltree.Node) []algebra.Item {
	items := algebra.Filter([]algebra.Item{{ID: n.ID, Node: n}}, p.Nodes[i], iv.Engine.Doc)
	if i == 0 {
		items = algebra.FilterRootAnchor(p, items)
	}
	return items
}

// labelAdmits reports whether a node can occupy a pattern position with the
// given label: wildcards take any element, word labels any text node
// containing the word, plain labels an exact match.
func labelAdmits(label string, n *xmltree.Node) bool {
	switch {
	case label == "*":
		return n.Kind == xmltree.Element
	case strings.HasPrefix(label, "~"):
		return n.MatchesWord(label[1:])
	default:
		return label == n.Label()
	}
}

// withItems merges sorted extra items into a document-ordered item list.
func withItems(items, add []algebra.Item) []algebra.Item {
	if len(add) == 0 {
		return items
	}
	out := make([]algebra.Item, 0, len(items)+len(add))
	i := 0
	for _, a := range add {
		for i < len(items) && items[i].ID.Compare(a.ID) < 0 {
			out = append(out, items[i])
			i++
		}
		out = append(out, a)
	}
	return append(out, items[i:]...)
}

// withoutID filters one ID out of an item list.
func withoutID(items []algebra.Item, id dewey.ID) []algebra.Item {
	out := make([]algebra.Item, 0, len(items))
	for _, it := range items {
		if !it.ID.Equal(id) {
			out = append(out, it)
		}
	}
	return out
}
