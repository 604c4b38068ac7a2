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
// IVMA runs only on a document that is never published (Engine.Snapshot),
// which the mutators edit in place.
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
	applied, err := update.Apply(e.Doc, e.Store, pul)
	if err != nil {
		return 0, err
	}
	deleting := st.Kind != update.Insert
	roots := applied.InsertedRoots
	if deleting {
		roots = applied.DeletedRoots
	}
	// Flatten the subtrees into individual nodes, in document order: IVMA
	// sees a stream of single-node updates.
	var nodes []*xmltree.Node
	for _, root := range roots {
		xmltree.Walk(root, func(n *xmltree.Node) bool {
			nodes = append(nodes, n)
			return true
		})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID.Compare(nodes[j].ID) < 0 })

	// Each pass reads the relations with every earlier pass applied. Nodes
	// are inserted in document order and removed bottom-up (in reverse), so
	// a pass's R is, per pattern node, the relation as it was before the
	// insertion plus the nodes before n — the store hides the inserted
	// subtrees while it is read — or the relation as it is after the
	// deletion plus n and the nodes before it.
	start := time.Now()
	if !deleting {
		e.Store.Hide(roots)
	}
	stable := make([]algebra.Inputs, len(e.Views))
	pending := make([]algebra.Inputs, len(e.Views))
	for k, mv := range e.Views {
		stable[k] = e.Store.Inputs(mv.Pattern)
		pending[k] = iv.admitted(mv.Pattern, nodes)
	}
	e.Store.Hide(nil)
	pass := func(n *xmltree.Node) {
		for k, mv := range e.Views {
			base := make(algebra.Inputs, len(stable[k]))
			for i, items := range stable[k] {
				adm := pending[k][i]
				upTo := sort.Search(len(adm), func(j int) bool {
					c := adm[j].ID.Compare(n.ID)
					return c > 0 || c == 0 && !deleting
				})
				base[i] = withItems(items, adm[:upTo])
			}
			for _, row := range iv.singleNodeRows(mv, n, deleting, base) {
				if deleting {
					mv.View.DecrementBy(row, row.Count)
				} else {
					mv.View.Upsert(row)
				}
			}
		}
	}
	if deleting {
		for k := len(nodes) - 1; k >= 0; k-- {
			pass(nodes[k])
		}
	} else {
		for _, n := range nodes {
			pass(n)
		}
	}
	e.bumpVersion()
	return time.Since(start), nil
}

// admitted is, per pattern node, the σ-filtered items of the given nodes
// (in document order) that can bind it.
func (iv *IVMA) admitted(p *pattern.Pattern, nodes []*xmltree.Node) algebra.Inputs {
	in := make(algebra.Inputs, p.Size())
	for i, pn := range p.Nodes {
		for _, n := range nodes {
			if labelAdmits(pn.Label, n) {
				in[i] = append(in[i], iv.pinItems(p, i, n)...)
			}
		}
	}
	return in
}

// singleNodeRows evaluates the view tuples that bind n in at least one
// pattern position, each counted exactly once, as the telescoping sum
//
//	Σ_i  (R′_1, …, R′_{i-1}, {n}, R_{i+1}, …, R_k)
//
// where R, base, is the relation state without the pass's effect applied
// (for an insertion: before n joins the relations; for a deletion: while n
// is still in them) and R′ the state with it. Positions left of the pin
// read R′, positions right of it R, so a tuple binding n in several
// positions is produced only by the pin at its leftmost n-position — no
// tuple is counted twice, and none is missed (the old scheme read R
// everywhere and dropped "duplicates" the earlier pins could never have
// produced).
func (iv *IVMA) singleNodeRows(mv *ManagedView, n *xmltree.Node, deleting bool, base algebra.Inputs) []algebra.Row {
	e := iv.Engine
	p := mv.Pattern
	merged := store.NewView(p)
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
