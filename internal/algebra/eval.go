package algebra

import (
	"sort"
	"strings"

	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// JoinFunc is the physical join used by the evaluators; StructuralJoin by
// default, NestedLoopStructuralJoin for the ablation.
type JoinFunc func(left Block, lIdx int, right Block, rIdx int, desc bool) Block

// Inputs supplies, for each pattern node index, the (already σ-filtered)
// items that may bind that node. Its length is the pattern's size.
type Inputs [][]Item

// DocItems collects the document nodes that can bind a pattern node with
// the given label: elements for names and "*", attributes for "@name",
// text nodes for "#text", and text nodes containing a word for "~word"
// leaves. Results are in document order.
func DocItems(d *xmltree.Document, label string) []Item {
	var out []Item
	word, isWord := strings.CutPrefix(label, "~")
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		switch {
		case isWord:
			if n.MatchesWord(word) {
				out = append(out, Item{ID: n.ID(), Node: n})
			}
		case label == "*":
			if n.Kind == xmltree.Element {
				out = append(out, Item{ID: n.ID(), Node: n})
			}
		case n.Label() == label:
			out = append(out, Item{ID: n.ID(), Node: n})
		}
		return true
	})
	return out
}

// DocInputs builds σ-filtered inputs for every node of p from the document.
func DocInputs(d *xmltree.Document, p *pattern.Pattern) Inputs {
	in := make(Inputs, p.Size())
	for i, n := range p.Nodes {
		in[i] = Filter(DocItems(d, n.Label), n, d)
	}
	in[0] = FilterRootAnchor(p, in[0])
	return in
}

// FilterRootAnchor restricts the root node's input to document roots when
// the pattern root is /-anchored (Desc == false): "/site" matches only a
// root element, while "//site" matches any.
func FilterRootAnchor(p *pattern.Pattern, items []Item) []Item {
	if p.Root.Desc {
		return items
	}
	out := make([]Item, 0, len(items))
	for _, it := range items {
		if it.ID.Level() == 1 {
			out = append(out, it)
		}
	}
	return out
}

// subtreeEnd returns one past the last preorder index of the subtree rooted
// at node i (subtrees are contiguous in preorder).
func subtreeEnd(p *pattern.Pattern, i int) int {
	end := i + 1
	for end < p.Size() && p.IsAncestor(i, end) {
		end++
	}
	return end
}

// EvalSubPattern evaluates the sub-pattern induced by mask (which must be
// upward-closed and non-empty) from per-node inputs, joining bottom-up with
// join (nil means StructuralJoin). The resulting block binds exactly the
// mask's nodes, columns in preorder order.
func EvalSubPattern(p *pattern.Pattern, mask uint64, in Inputs, join JoinFunc) Block {
	if join == nil {
		join = StructuralJoin
	}
	if mask == 0 {
		panic("algebra: EvalSubPattern on empty mask")
	}
	idxs := pattern.MaskIndexes(mask)
	// rel[i] holds the partial relation for the mask-subtree rooted at i.
	rel := make([]Block, p.Size())
	// Process in reverse preorder so children are ready before parents.
	for k := len(idxs) - 1; k >= 0; k-- {
		i := idxs[k]
		b := SingleColumn(i, in[i])
		for _, c := range p.Nodes[i].Children {
			if !pattern.MaskContains(mask, c.Index) {
				continue
			}
			b = join(b, i, rel[c.Index], c.Index, c.Desc)
		}
		rel[i] = b
	}
	root := idxs[0]
	return rel[root]
}

// EvalForest evaluates the sub-forest induced by mask when mask is NOT
// upward-closed: each maximal root of mask yields an independent block (no
// cross product is taken — the caller joins them against a block that binds
// their pattern parents). Returned in ascending root-index order along with
// the forest root indexes.
func EvalForest(p *pattern.Pattern, mask uint64, in Inputs, join JoinFunc) ([]Block, []int) {
	if join == nil {
		join = StructuralJoin
	}
	var roots []int
	for _, i := range pattern.MaskIndexes(mask) {
		pi := p.ParentIndex(i)
		if pi < 0 || !pattern.MaskContains(mask, pi) {
			roots = append(roots, i)
		}
	}
	blocks := make([]Block, 0, len(roots))
	for _, r := range roots {
		sub := subtreeMask(p, r) & mask
		blocks = append(blocks, EvalSubPattern(p, sub, in, join))
	}
	return blocks, roots
}

func subtreeMask(p *pattern.Pattern, i int) uint64 {
	end := subtreeEnd(p, i)
	var m uint64
	for j := i; j < end; j++ {
		m |= 1 << uint(j)
	}
	return m
}

// AttachForest joins block (binding an upward-closed node set that includes
// every forest root's pattern parent) with the forest blocks, using the
// edges crossing the boundary. The result binds the union of the nodes.
func AttachForest(p *pattern.Pattern, block Block, forest []Block, roots []int, join JoinFunc) Block {
	if join == nil {
		join = StructuralJoin
	}
	for i, fb := range forest {
		r := roots[i]
		pi := p.ParentIndex(r)
		block = join(block, pi, fb, r, p.Nodes[r].Desc)
	}
	return block
}

// EvalPattern evaluates the whole pattern from per-node inputs, returning
// full-width tuples in preorder column order.
func EvalPattern(p *pattern.Pattern, in Inputs, join JoinFunc) []Tuple {
	b := EvalSubPattern(p, p.FullMask(), in, join)
	return NormalizeColumns(p, b)
}

// NormalizeColumns permutes a full-width block's columns into preorder
// order and returns its tuples.
func NormalizeColumns(p *pattern.Pattern, b Block) []Tuple {
	if len(b.Cols) != p.Size() {
		panic("algebra: NormalizeColumns on non-full block")
	}
	perm := make([]int, p.Size())
	for pos, idx := range b.Cols {
		perm[idx] = pos
	}
	out := make([]Tuple, len(b.Tuples))
	for i, t := range b.Tuples {
		items := make([]Item, p.Size())
		for idx := 0; idx < p.Size(); idx++ {
			items[idx] = t.Items[perm[idx]]
		}
		out[i] = Tuple{Items: items, Count: t.Count}
	}
	return out
}

// Materialize evaluates pattern p over the document and returns its view
// rows (projection on stored nodes with derivation counts) — the customary
// semantics used both as ground truth and for initial view materialization.
func Materialize(d *xmltree.Document, p *pattern.Pattern) []Row {
	tuples := EvalPattern(p, DocInputs(d, p), nil)
	return ProjectStored(p, tuples, d)
}

// Embeddings computes all embeddings of p in the document by direct
// recursive tree matching — an algebra-free ground truth used by the tests
// to validate the join-based evaluator. Tuples are full-width.
func Embeddings(d *xmltree.Document, p *pattern.Pattern) []Tuple {
	var out []Tuple
	binding := make([]Item, p.Size())

	// nodeMatches checks label and value predicate.
	nodeMatches := func(pn *pattern.Node, n *xmltree.Node) bool {
		if word, isWord := strings.CutPrefix(pn.Label, "~"); isWord {
			if !n.MatchesWord(word) {
				return false
			}
		} else if pn.Label == "*" {
			if n.Kind != xmltree.Element {
				return false
			}
		} else if n.Label() != pn.Label {
			return false
		}
		if pn.HasPred && n.StringValue() != pn.PredVal {
			return false
		}
		return true
	}

	// candidates lists document nodes reachable from base via the edge kind.
	candidates := func(base *xmltree.Node, desc bool) []*xmltree.Node {
		var cs []*xmltree.Node
		if !desc {
			for k := base.Kids(); k.Next(); {
				cs = append(cs, k.Node())
			}
			return cs
		}
		xmltree.Walk(base, func(n *xmltree.Node) bool {
			if n != base {
				cs = append(cs, n)
			}
			return true
		})
		return cs
	}

	// Depth-first assignment over pattern preorder.
	var rec func(pi int)
	rec = func(pi int) {
		if pi == p.Size() {
			items := make([]Item, p.Size())
			copy(items, binding)
			out = append(out, Tuple{Items: items, Count: 1})
			return
		}
		pn := p.Nodes[pi]
		var cands []*xmltree.Node
		if pi == 0 {
			if !pn.Desc {
				cands = []*xmltree.Node{d.Root}
			} else {
				xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
					cands = append(cands, n)
					return true
				})
			}
		} else {
			parentItem := binding[p.ParentIndex(pi)]
			cands = candidates(parentItem.Node, pn.Desc)
		}
		for _, n := range cands {
			if !nodeMatches(pn, n) {
				continue
			}
			binding[pi] = Item{ID: n.ID(), Node: n}
			rec(pi + 1)
		}
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return CompareTuples(out[i], out[j]) < 0 })
	return out
}

// CompareTuples orders equal-width tuples item-wise by ID document order.
func CompareTuples(a, b Tuple) int {
	for i := range a.Items {
		if c := a.Items[i].ID.Compare(b.Items[i].ID); c != 0 {
			return c
		}
	}
	return 0
}

// SortTuples orders full-width tuples by their bindings' document order.
func SortTuples(tuples []Tuple) {
	sort.Slice(tuples, func(i, j int) bool { return CompareTuples(tuples[i], tuples[j]) < 0 })
}
