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
// A plan never consults the base document; everything comes from view rows.
// Its one executor reads the views it joins where they lie and streams
// answer rows to a sink: Answer collects them, and AppendMatches encodes
// them as they come, so a served read allocates neither its answer nor its
// scans, a joined view's included (see executor and side).
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
// cardinality for plan costing. *store.View, *core.ViewSnapshot and
// RowSlice, the rows of an epoch, implement it; the first two also tell
// their rows' shape (RowShape), which a plan then need not build.
type RowSource interface {
	Each(f func(algebra.Row) bool)
	Len() int
}

// RowSlice is an epoch's rows as core.ViewSnapshot.Rows holds them, read as
// they lie; dewey.ChunksOf reads one plain slice as a RowSlice, and the nil
// RowSlice is empty.
type RowSlice = *dewey.Chunks[algebra.Row]

// View couples a pattern with its materialized rows, laid out by the
// pattern's algebra.Shape (what core.ManagedView exposes; accepted
// structurally to avoid a dependency).
type View struct {
	Name    string
	Pattern *pattern.Pattern
	Rows    RowSource
}

// shaped is a RowSource that holds its rows' layout, as a store.View and a
// core.ViewSnapshot do: Compile reads the shape from it instead of building
// one from the view's pattern on every plan.
type shaped interface{ RowShape() *algebra.Shape }

// Plan is a query compiled against a view library: how it is answered
// (the exported fields) and the pieces its executor runs.
type Plan struct {
	Kind  string // "single", "stitch" or "intersect"
	Views []string
	// SplitNode is the query node index the stitch joined on (stitch only).
	SplitNode int
	// Cost is the total number of view rows the plan scans.
	Cost int

	q      *pattern.Pattern
	pieces []piece
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
// rewriting exists: Compile, then collect what the plan's executor emits.
func Answer(q *pattern.Pattern, views []*View) ([]algebra.Row, *Plan, error) {
	plan, err := Compile(q, views)
	if err != nil {
		return nil, nil, err
	}
	rows, _ := plan.rows()
	return rows, plan, nil
}

// Compile plans q over the views, reading only their cardinalities. Among
// applicable plans the cheapest by scanned view cardinality is chosen; a
// matching single view always beats multi-view plans (it scans one relation
// and needs no join).
func Compile(q *pattern.Pattern, views []*View) (*Plan, error) {
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
		return nil, fmt.Errorf("rewrite: no view combination answers %s", q)
	}
	for i := range pieces {
		if v, ok := pieces[i].view.Rows.(shaped); ok {
			pieces[i].m.shape = v.RowShape()
		} else {
			pieces[i].m.shape = algebra.NewShape(pieces[i].view.Pattern)
		}
	}
	plan.q, plan.pieces = q, pieces
	return plan, nil
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
		if !slices.ContainsFunc(views, func(v *View) bool { return v.Pattern.Root.Label == q.Nodes[c].Label }) {
			continue // no view can answer the part below c: do not build it
		}
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

// project unpacks a view row of the given shape into the answer row's
// entries that outs name.
func project(dst []algebra.RowEntry, outs []outCol, shape *algebra.Shape, src algebra.Row) {
	for _, o := range outs {
		e := shape.Entry(src, o.col)
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

// side is a non-driving piece, searched per driving key on the shared
// node's cached ID key: its view's rows, read where the view holds them (a
// RowSlice, or a lender's run) when they ascend by that key — as a chain's
// rows do on their top node, and on any node whose label does not nest
// under itself. Otherwise (a label nested under itself, or a source that
// lends nothing) its passing rows' headers are copied and sorted by the
// key; the rows' cells are never copied.
type side struct {
	p    *piece
	rows RowSlice
	outs []outCol
}

// lender is a RowSource that lends its rows as it holds them, in order: a
// store.View's run, a core.ViewSnapshot's epoch.
type lender interface{ RowChunks() RowSlice }

func newSide(p *piece, outs []outCol) side {
	s := side{p: p, outs: outs}
	in := false
	switch rs := p.view.Rows.(type) {
	case RowSlice:
		s.rows, in = rs, true
	case lender:
		s.rows, in = rs.RowChunks(), true
	}
	if in && ascends(s.rows, p.join) {
		return s
	}
	rows := make([]algebra.Row, 0, p.view.Rows.Len())
	p.view.Rows.Each(func(r algebra.Row) bool {
		if p.passes(r) {
			rows = append(rows, r)
		}
		return true
	})
	slices.SortStableFunc(rows, func(a, b algebra.Row) int {
		return strings.Compare(a.ID(p.join).Key(), b.ID(p.join).Key())
	})
	s.rows = dewey.ChunksOf(rows)
	return s
}

// ascends reports whether rows' keys in column col never descend: one pass,
// no allocation.
func ascends(rows RowSlice, col int) bool {
	prev, ok := "", true
	rows.Each(func(r algebra.Row) bool {
		k := r.ID(col).Key()
		ok, prev = prev <= k, k
		return ok
	})
	return ok
}

// each calls f with every passing row whose shared node's key is key, in
// order, until f returns false, and reports whether f never did.
func (s *side) each(key string, f func(algebra.Row) bool) bool {
	ok := true
	s.rows.From(func(r algebra.Row) int { return strings.Compare(r.ID(s.p.join).Key(), key) },
		func(r algebra.Row) bool {
			if r.ID(s.p.join).Key() != key {
				return false
			}
			if s.p.passes(r) {
				ok = f(r)
			}
			return ok
		})
	return ok
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

// executor is a compiled plan made runnable. Fixing the shared node, the
// embeddings of q are exactly the cross product of the pieces' embeddings
// (the pieces partition the other query nodes), so counts multiply. The
// piece supplying the most answer columns drives: it is streamed, and every
// other piece is a side, searched on the shared node's key per driving row.
// A side supplying no answer column only multiplies counts: its rows under
// one key are summed into one count. Answer rows are projected onto q's
// stored nodes in one reused row of entries, so a run allocates nothing per
// row it emits, nor per row of a side it reads in place.
type executor struct {
	drv   *piece
	outs  []outCol // the driving piece's answer columns
	sides []side
	cur   []algebra.RowEntry // the row being emitted
}

func (p *Plan) executor() *executor {
	stored := p.q.StoredIndexes()
	outs := make([][]outCol, len(p.pieces))
	drv := 0
	for pos, qi := range stored {
		for pi := range p.pieces {
			if j := slices.Index(p.pieces[pi].orig, qi); j >= 0 {
				n := p.q.Nodes[qi]
				outs[pi] = append(outs[pi], outCol{col: p.pieces[pi].m.col[j], pos: pos, node: qi,
					val: n.Store.Has(pattern.StoreVal), cont: n.Store.Has(pattern.StoreCont)})
				if len(outs[pi]) > len(outs[drv]) {
					drv = pi
				}
				break
			}
		}
	}
	x := &executor{drv: &p.pieces[drv], outs: outs[drv], cur: make([]algebra.RowEntry, len(stored))}
	for pi := range p.pieces {
		if pi != drv {
			x.sides = append(x.sides, newSide(&p.pieces[pi], outs[pi]))
		}
	}
	return x
}

// run streams the driving view once and hands emit every answer row as the
// join produces it, unpacked — one entry per stored query node — with its
// derivation count: in the driving view's order, which need not be ID
// order, and unmerged, so several rows may project onto the same stored
// nodes. The entries are reused for the next row; emit copies what it
// keeps, and stops the stream by returning false.
func (x *executor) run(emit func(entries []algebra.RowEntry, count int) bool) {
	var join func(si int, key string, count int) bool
	join = func(si int, key string, count int) bool {
		if si == len(x.sides) {
			return emit(x.cur, count)
		}
		s := &x.sides[si]
		if len(s.outs) == 0 {
			sum := 0
			s.each(key, func(r algebra.Row) bool { sum += r.Count; return true })
			return sum == 0 || join(si+1, key, count*sum)
		}
		return s.each(key, func(r algebra.Row) bool {
			project(x.cur, s.outs, s.p.m.shape, r)
			return join(si+1, key, count*r.Count)
		})
	}
	d := x.drv
	d.view.Rows.Each(func(r algebra.Row) bool {
		if !d.passes(r) {
			return true
		}
		project(x.cur, x.outs, d.m.shape, r)
		return join(0, r.ID(d.join).Key(), r.Count)
	})
}

// rows is the collecting sink: the executor runs twice, once to count what
// it emits and once to pack it into rows of the query's shape, returned
// with them, in a slice made at its size, and the answer is then sorted and
// merged.
func (p *Plan) rows() ([]algebra.Row, *algebra.Shape) {
	x, shape := p.executor(), algebra.NewShape(p.q)
	n := 0
	x.run(func([]algebra.RowEntry, int) bool { n++; return true })
	rows := make([]algebra.Row, 0, n)
	x.run(func(entries []algebra.RowEntry, count int) bool {
		rows = append(rows, shape.Pack(entries, count))
		return true
	})
	return mergeSorted(rows, shape.Compare), shape
}

// AppendMatches appends the answer of a query storing one node to dst, each
// match encoded by match, which gets the match's position and its entry:
// every answer node once, in ID order, as Answer lists them. Nothing is
// collected: rows go from the executor to match as the join emits them,
// and a row repeating the node before it is skipped (derivation counts are
// not matches). A row whose node precedes the one before it — a driving
// view whose order is not its answer's — cuts dst back to where it began,
// and the answer is collected, sorted and encoded instead; rewound reports
// that it was.
func (p *Plan) AppendMatches(dst []byte, match func(dst []byte, i int, e *algebra.RowEntry) []byte) (_ []byte, rewound bool) {
	from, n := len(dst), 0
	var prev dewey.ID
	p.executor().run(func(entries []algebra.RowEntry, _ int) bool {
		e := &entries[0]
		if n > 0 {
			if c := e.ID.Compare(prev); c <= 0 {
				rewound = c < 0
				return !rewound
			}
		}
		dst = match(dst, n, e)
		prev, n = e.ID, n+1
		return true
	})
	if !rewound {
		return dst, false
	}
	dst = dst[:from]
	rows, shape := p.rows()
	for i, r := range rows {
		e := shape.Entry(r, 0)
		dst = match(dst, i, &e)
	}
	return dst, true
}

// mergeSorted puts projected rows in ID order (cmp, their shape's Compare)
// and folds rows that collapsed onto the same stored nodes into one,
// summing their counts. Views hold their rows in ID order, so the usual
// answer arrives sorted and distinct and is returned as it is.
func mergeSorted(rows []algebra.Row, cmp func(a, b algebra.Row) int) []algebra.Row {
	inOrder := true
	for i := 1; i < len(rows) && inOrder; i++ {
		inOrder = cmp(rows[i-1], rows[i]) < 0
	}
	if inOrder {
		return rows
	}
	slices.SortFunc(rows, cmp)
	return mergeEqual(rows, cmp)
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
	// shape is the layout of the view's rows, set once the mapping is a
	// plan's.
	shape *algebra.Shape
}

type valCheck struct {
	col int
	val string
}

// passes runs the piece's residual checks on one row of its view.
func (p *piece) passes(r algebra.Row) bool {
	for _, pc := range p.m.parents {
		child := r.ID(pc[0])
		if pc[1] < 0 {
			if child.Level() != 1 {
				return false // root anchoring failed
			}
		} else if !r.ID(pc[1]).IsParentOf(child) {
			return false
		}
	}
	for _, vc := range p.m.vals {
		if p.m.shape.Entry(r, vc.col).Val != vc.val {
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
	if q.Size() != v.Size() || q.Root.Label != v.Root.Label {
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
