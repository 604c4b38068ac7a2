// Package rewrite answers tree-pattern queries from materialized views —
// the reason the paper's views store structural IDs in the first place:
// "storing IDs in views enables combining several views in order to answer
// a query". Three sound and exact (derivation-count-preserving) strategies
// are implemented over ID-complete views (views storing the ID of every
// pattern node):
//
//   - single-view rewriting: the query is answered from one view whose
//     pattern matches it node-for-node, with residual parent-child and
//     value predicates applied directly on the stored IDs/values;
//   - two-view stitching: the query is split at a node, its upper part
//     answered by one view and the subtree below the split by another,
//     joined on the split node's ID;
//   - k-view intersection (after Cautis et al., "Rewriting XPath Queries
//     using View Intersections"): a query whose root has k ≥ 2 children is
//     decomposed into one piece per root subtree, each piece answered by
//     its own view, all pieces joined on the shared root ID.
//
// When several plans apply, the cheapest by view cardinality wins: a
// rewrite scans whole views, so cost is the total number of rows read.
//
// Answer never consults the base document; everything comes from view rows,
// and what a call allocates is its answer, not its scans (see execute).
package rewrite

import (
	"fmt"
	"slices"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// RowSource is the row access a rewrite needs: a full scan plus a
// cardinality for plan costing. *store.View implements it directly, and so
// does RowSlice, the rows of an epoch.
type RowSource interface {
	Each(f func(algebra.Row) bool)
	Len() int
}

// RowSlice is an epoch's rows as core.ViewSnapshot.Rows holds them, read as
// they lie; RowSlice{rows} wraps one plain slice.
type RowSlice = dewey.Chunks[algebra.Row]

// View couples a pattern with its materialized rows (the shape
// core.ManagedView exposes; accepted structurally to avoid a dependency).
type View struct {
	Name    string
	Pattern *pattern.Pattern
	Rows    RowSource
}

// Plan describes how a query was answered.
type Plan struct {
	Kind  string // "single", "stitch" or "intersect"
	Views []string
	// SplitNode is the query node index the stitch joined on (stitch only).
	SplitNode int
	// Cost is the total number of view rows the plan scans.
	Cost int
}

func (p *Plan) Explain() string {
	switch p.Kind {
	case "single":
		return fmt.Sprintf("single-view rewrite over %s", p.Views[0])
	case "intersect":
		return fmt.Sprintf("intersection of %s on the query root", strings.Join(p.Views, ", "))
	default:
		return fmt.Sprintf("stitch of %s and %s on query node %d", p.Views[0], p.Views[1], p.SplitNode)
	}
}

// Answer computes the query's rows (projected onto its stored nodes, with
// exact derivation counts) from the given views, or reports that no
// rewriting exists. Among applicable plans the cheapest by scanned view
// cardinality is chosen; a matching single view always beats multi-view
// plans (it scans one relation and needs no join).
func Answer(q *pattern.Pattern, views []*View) ([]algebra.Row, *Plan, error) {
	var pieces []piece
	var plan *Plan
	if v, m := bestSingle(q, views); v != nil {
		orig := make([]int, q.Size())
		for i := range orig {
			orig[i] = i
		}
		pieces = []piece{{view: v, m: m, orig: orig}}
		plan = &Plan{Kind: "single", Views: []string{v.Name}, Cost: v.Rows.Len()}
	} else {
		pieces, plan = planStitch(q, views)
		if ip, in := planIntersect(q, views); in != nil && (plan == nil || in.Cost < plan.Cost) {
			pieces, plan = ip, in
		}
	}
	if plan == nil {
		return nil, nil, fmt.Errorf("rewrite: no view combination answers %s", q)
	}
	return execute(q, pieces), plan, nil
}

// piece is one view's part in a compiled plan: the sub-pattern of the query
// it answers, reduced to column indexes into its view's rows and the
// residual checks each row must pass.
type piece struct {
	view *View
	m    *mapping
	orig []int // piece node index → query node index
	join int   // column of the node the plan's pieces share (multi-view plans)
}

// bestSingle returns the lowest-cardinality view matching q alone, with
// its column mapping, or nil.
func bestSingle(q *pattern.Pattern, views []*View) (*View, *mapping) {
	var best *View
	var bestM *mapping
	for _, v := range views {
		if !idComplete(v) || (best != nil && v.Rows.Len() >= best.Rows.Len()) {
			continue
		}
		if m, ok := matchPatterns(q, v.Pattern); ok {
			best, bestM = v, m
		}
	}
	return best, bestM
}

// planStitch picks the cheapest split point: a query node c with a matching
// view for the part above it (c a leaf) and one for the subtree below it,
// joined on c's ID.
func planStitch(q *pattern.Pattern, views []*View) ([]piece, *Plan) {
	var pieces []piece
	var plan *Plan
	for c := 1; c < q.Size(); c++ {
		topQ, topMap, botQ, botMap := split(q, c)
		top, topM := bestSingle(topQ, views)
		if top == nil {
			continue
		}
		bot, botM := bestSingle(botQ, views)
		if bot == nil {
			continue
		}
		if cost := top.Rows.Len() + bot.Rows.Len(); plan == nil || cost < plan.Cost {
			pieces = []piece{
				{view: top, m: topM, orig: topMap, join: topM.col[slices.Index(topMap, c)]},
				{view: bot, m: botM, orig: botMap, join: botM.col[0]},
			}
			plan = &Plan{Kind: "stitch", Views: []string{top.Name, bot.Name}, SplitNode: c, Cost: cost}
		}
	}
	return pieces, plan
}

// planIntersect builds the root-pivot decomposition: each piece keeps the
// query root (with its store/predicate annotations, so every piece's view
// must cover them) plus one child subtree, with the cheapest matching view
// per piece, all joined on the root's ID. Applicable only when the root has
// at least two children — with one child the decomposition degenerates to
// the query itself.
func planIntersect(q *pattern.Pattern, views []*View) ([]piece, *Plan) {
	if len(q.Root.Children) < 2 {
		return nil, nil
	}
	var pieces []piece
	plan := &Plan{Kind: "intersect"}
	for _, ch := range q.Root.Children {
		mask := uint64(1) << uint(q.Root.Index)
		for j := 0; j < q.Size(); j++ {
			if j == ch.Index || q.IsAncestor(ch.Index, j) {
				mask |= 1 << uint(j)
			}
		}
		sub, orig := q.SubPattern(mask) // orig[0] is the root
		v, m := bestSingle(sub, views)
		if v == nil {
			return nil, nil
		}
		pieces = append(pieces, piece{view: v, m: m, orig: orig, join: m.col[0]})
		plan.Views = append(plan.Views, v.Name)
		plan.Cost += v.Rows.Len()
	}
	return pieces, plan
}

// outCol projects one stored query node out of a piece's view rows.
type outCol struct {
	col, pos, node int  // view column → position in the answer row, query node index
	val, cont      bool // whether the query stores them
}

func project(dst []algebra.RowEntry, outs []outCol, src []algebra.RowEntry) {
	for _, o := range outs {
		e := src[o.col]
		e.NodeIdx = o.node
		if !o.val {
			e.Val = ""
		}
		if !o.cont {
			e.Cont = ""
		}
		dst[o.pos] = e
	}
}

// side is a non-driving piece made probeable on the shared node: its
// passing rows, ordered by that node's cached ID key. Nothing of a view row
// is copied — a row here shares the view row's Entries. A piece supplying no
// answer column only multiplies counts, so its rows with equal keys are
// folded into one carrying the sum of their counts.
type side struct {
	rows []algebra.Row
	join int
	outs []outCol
}

func (s *side) compare(r algebra.Row, key string) int {
	return strings.Compare(r.Entries[s.join].ID.Key(), key)
}

func newSide(p *piece, outs []outCol) side {
	s := side{rows: make([]algebra.Row, 0, p.view.Rows.Len()), join: p.join, outs: outs}
	p.view.Rows.Each(func(r algebra.Row) bool {
		if p.m.passes(r) {
			s.rows = append(s.rows, r)
		}
		return true
	})
	byKey := func(a, b algebra.Row) int { return s.compare(a, b.Entries[s.join].ID.Key()) }
	if !slices.IsSortedFunc(s.rows, byKey) {
		slices.SortFunc(s.rows, byKey)
	}
	if len(outs) == 0 {
		s.rows = mergeEqual(s.rows, byKey)
	}
	return s
}

// mergeEqual folds each run of rows equal under cmp into its first row,
// summing counts. rows must be sorted by cmp.
func mergeEqual(rows []algebra.Row, cmp func(a, b algebra.Row) int) []algebra.Row {
	if len(rows) == 0 {
		return rows
	}
	n := 0
	for _, r := range rows[1:] {
		if cmp(rows[n], r) == 0 {
			rows[n].Count += r.Count
		} else {
			n++
			rows[n] = r
		}
	}
	return rows[:n+1]
}

// execute runs a compiled plan. Fixing the shared node, the embeddings of q
// are exactly the cross product of the pieces' embeddings (the pieces
// partition the other query nodes), so counts multiply. The piece supplying
// the most answer columns is streamed; every other piece is ordered by the
// shared node's key and searched per streamed row. Answer rows are emitted
// already projected onto q's stored nodes, their entries carved out of one
// backing slice, so a call allocates its answer plus one row header per
// row of a non-driving view — not a full-width copy of every row it scans.
func execute(q *pattern.Pattern, pieces []piece) []algebra.Row {
	stored := q.StoredIndexes()
	outs := make([][]outCol, len(pieces))
	drv := 0
	for pos, qi := range stored {
		for pi := range pieces {
			if j := slices.Index(pieces[pi].orig, qi); j >= 0 {
				n := q.Nodes[qi]
				outs[pi] = append(outs[pi], outCol{col: pieces[pi].m.col[j], pos: pos, node: qi,
					val: n.Store.Has(pattern.StoreVal), cont: n.Store.Has(pattern.StoreCont)})
				if len(outs[pi]) > len(outs[drv]) {
					drv = pi
				}
				break
			}
		}
	}
	var sides []side
	for pi := range pieces {
		if pi != drv {
			sides = append(sides, newSide(&pieces[pi], outs[pi]))
		}
	}

	// The driving view is streamed twice: the first pass only counts what
	// the join emits, so the second fills slices made once, at their size.
	width := len(stored)
	var (
		emitted int
		backing []algebra.RowEntry
		rows    []algebra.Row
	)
	cur := make([]algebra.RowEntry, width)
	var emit func(si int, key string, count int)
	emit = func(si int, key string, count int) {
		if si == len(sides) {
			if rows == nil {
				emitted++
				return
			}
			backing = append(backing, cur...)
			n := len(backing)
			rows = append(rows, algebra.Row{Entries: backing[n-width : n : n], Count: count})
			return
		}
		s := &sides[si]
		i, _ := slices.BinarySearchFunc(s.rows, key, s.compare)
		for ; i < len(s.rows) && s.compare(s.rows[i], key) == 0; i++ {
			project(cur, s.outs, s.rows[i].Entries)
			emit(si+1, key, count*s.rows[i].Count)
		}
	}
	d := &pieces[drv]
	stream := func() {
		d.view.Rows.Each(func(r algebra.Row) bool {
			if d.m.passes(r) {
				project(cur, outs[drv], r.Entries)
				emit(0, r.Entries[d.join].ID.Key(), r.Count)
			}
			return true
		})
	}
	stream()
	backing, rows = make([]algebra.RowEntry, 0, emitted*width), make([]algebra.Row, 0, emitted)
	stream()
	return mergeSorted(rows)
}

// mergeSorted puts projected rows in ID order and folds rows that collapsed
// onto the same stored nodes into one, summing their counts. Views hold
// their rows in ID order, so the usual answer arrives sorted and distinct
// and is returned as it is.
func mergeSorted(rows []algebra.Row) []algebra.Row {
	inOrder := true
	for i := 1; i < len(rows) && inOrder; i++ {
		inOrder = algebra.CompareRows(rows[i-1], rows[i]) < 0
	}
	if inOrder {
		return rows
	}
	slices.SortFunc(rows, algebra.CompareRows)
	return mergeEqual(rows, algebra.CompareRows)
}

// idComplete reports whether every node of the view stores its ID — the
// prerequisite for exact-count answering.
func idComplete(v *View) bool {
	for _, n := range v.Pattern.Nodes {
		if !n.Store.Has(pattern.StoreID) {
			return false
		}
	}
	return true
}

// mapping is a bijection from query nodes onto the columns of a view's
// rows, plus the residual checks to run on each row. An ID-complete view
// stores every pattern node, so a view node's column is its index.
type mapping struct {
	col []int // query node index → row column
	// parents are query / edges that mapped onto a view // edge and must be
	// re-verified on IDs: child column, then parent column — or -1 for the
	// query root, which must then be the document root.
	parents [][2]int
	// vals are query predicates absent on the view node, checked against
	// the stored val.
	vals []valCheck
}

type valCheck struct {
	col int
	val string
}

// passes runs the residual checks on one view row.
func (m *mapping) passes(r algebra.Row) bool {
	for _, pc := range m.parents {
		child := r.Entries[pc[0]].ID
		if pc[1] < 0 {
			if child.Level() != 1 {
				return false // root anchoring failed
			}
		} else if !r.Entries[pc[1]].ID.IsParentOf(child) {
			return false
		}
	}
	for _, vc := range m.vals {
		if r.Entries[vc.col].Val != vc.val {
			return false
		}
	}
	return true
}

// matchPatterns finds a structure-preserving bijection from q onto v:
// equal labels; q's / edges map onto v edges that are / (exact) or //
// (re-checked on IDs); q's // edges require v // edges; view predicates
// must appear on the query (or the view filters too much); query predicates
// missing on the view are post-checked against stored values; everything
// the query stores beyond the ID must also be stored by the view — a view
// row can only supply a val/cont it kept, and projecting an absent one
// would silently return empty strings with correct counts (the bug class a
// count-only oracle cannot see).
func matchPatterns(q, v *pattern.Pattern) (*mapping, bool) {
	if q.Size() != v.Size() {
		return nil, false
	}
	m := &mapping{col: make([]int, q.Size())}
	// parent is the column of the view node qn's parent mapped onto, -1 at
	// the root.
	var match func(qn, vn *pattern.Node, parent int) bool
	match = func(qn, vn *pattern.Node, parent int) bool {
		if qn.Label != vn.Label {
			return false
		}
		if qn.Store.Has(pattern.StoreVal) && !vn.Store.Has(pattern.StoreVal) {
			return false // the view never kept this node's value
		}
		if qn.Store.Has(pattern.StoreCont) && !vn.Store.Has(pattern.StoreCont) {
			return false // nor its content
		}
		switch {
		case qn.Desc && !vn.Desc:
			// Query wants any descendant (or, at the root, any anchor); the
			// view only holds children (the document root).
			return false
		case !qn.Desc && vn.Desc:
			m.parents = append(m.parents, [2]int{vn.Index, parent})
		}
		// Predicates.
		switch {
		case vn.HasPred && (!qn.HasPred || qn.PredVal != vn.PredVal):
			return false // the view filters rows the query wants
		case qn.HasPred && !vn.HasPred:
			if !vn.Store.Has(pattern.StoreVal) {
				return false // cannot re-check without the stored value
			}
			m.vals = append(m.vals, valCheck{col: vn.Index, val: qn.PredVal})
		}
		if len(qn.Children) != len(vn.Children) {
			return false
		}
		// Children must match in order (patterns are ordered trees here; a
		// permutation search would also be sound but is rarely needed).
		for i := range qn.Children {
			if !match(qn.Children[i], vn.Children[i], vn.Index) {
				return false
			}
		}
		m.col[qn.Index] = vn.Index
		return true
	}
	if !match(q.Root, v.Root, -1) {
		return nil, false
	}
	return m, true
}

// split cuts q at node c: the top pattern keeps everything except c's
// proper descendants (c becomes a leaf), the bottom pattern is c's subtree
// re-rooted at c (with a descendant-anchored root, since the stitch joins
// on exact IDs anyway). Both come with their query-index maps.
func split(q *pattern.Pattern, c int) (topQ *pattern.Pattern, topMap []int, botQ *pattern.Pattern, botMap []int) {
	full := q.FullMask()
	var descMask uint64
	for j := 0; j < q.Size(); j++ {
		if q.IsAncestor(c, j) {
			descMask |= 1 << uint(j)
		}
	}
	topMask := full &^ descMask
	topQ, topMap = q.SubPattern(topMask)
	// Bottom: clone the subtree rooted at c.
	var cloneFrom func(n *pattern.Node) *pattern.Node
	cloneFrom = func(n *pattern.Node) *pattern.Node {
		cp := &pattern.Node{Label: n.Label, Desc: true, Store: n.Store, HasPred: n.HasPred, PredVal: n.PredVal}
		if n.Index != c {
			cp.Desc = n.Desc
		}
		for _, ch := range n.Children {
			cp.Children = append(cp.Children, cloneFrom(ch))
		}
		return cp
	}
	botRoot := cloneFrom(q.Nodes[c])
	botQ = pattern.MustNew(botRoot)
	for j := c; j < q.Size(); j++ {
		if j == c || q.IsAncestor(c, j) {
			botMap = append(botMap, j)
		}
	}
	return topQ, topMap, botQ, botMap
}
