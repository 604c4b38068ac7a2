package algebra

import (
	"math/bits"
	"slices"
	"strings"

	"xivm/internal/dewey"
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
	return (*Scratch)(nil).FilterRootAnchor(p, items)
}

// FilterRootAnchor is the package's FilterRootAnchor with the items that
// pass taken from s, capped at their length.
func (s *Scratch) FilterRootAnchor(p *pattern.Pattern, items []Item) []Item {
	if p.Root.Desc {
		return items
	}
	out := take(s.itemSlab(), len(items))
	for _, it := range items {
		if it.ID.Level() == 1 {
			out = append(out, it)
		}
	}
	return slices.Clip(out)
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
	return (*Scratch)(nil).EvalSubPattern(p, mask, in, join)
}

// EvalSubPattern is the package's EvalSubPattern with its single-column
// blocks taken from s.
func (s *Scratch) EvalSubPattern(p *pattern.Pattern, mask uint64, in Inputs, join JoinFunc) Block {
	if join == nil {
		join = s.StructuralJoin
	}
	if mask == 0 {
		panic("algebra: EvalSubPattern on empty mask")
	}
	// Process in reverse preorder so children are ready before parents: a
	// node's children in the mask are then the blocks on top of the stack,
	// its first child's topmost.
	var buf [8]Block
	stack := buf[:0]
	for m := mask; m != 0; {
		i := 63 - bits.LeadingZeros64(m)
		m &^= 1 << uint(i)
		b := s.SingleColumn(i, in[i])
		for _, c := range p.Nodes[i].Children {
			if pattern.MaskContains(mask, c.Index) {
				b = join(b, i, stack[len(stack)-1], c.Index, c.Desc)
				stack = stack[:len(stack)-1]
			}
		}
		stack = append(stack, b)
	}
	return stack[0]
}

// JoinForest joins block with the sub-forest mask induces when mask is
// NOT upward-closed: each maximal root of mask, in ascending order, is
// evaluated from in on its own (no cross product is taken) and joined to
// block, which must bind its pattern parent, along the edge between them.
// The result binds the union of the nodes; its blocks are taken from s.
func (s *Scratch) JoinForest(p *pattern.Pattern, block Block, mask uint64, in Inputs, join JoinFunc) Block {
	if join == nil {
		join = s.StructuralJoin
	}
	for m := mask; m != 0; m &= m - 1 {
		if r := bits.TrailingZeros64(m); forestRoot(p, mask, r) {
			fb := s.EvalSubPattern(p, subtreeMask(p, r)&mask, in, join)
			block = join(block, p.ParentIndex(r), fb, r, p.Nodes[r].Desc)
		}
	}
	return block
}

// forestRoot reports whether node i of mask has no pattern parent in it.
func forestRoot(p *pattern.Pattern, mask uint64, i int) bool {
	pi := p.ParentIndex(i)
	return pi < 0 || !pattern.MaskContains(mask, pi)
}

func subtreeMask(p *pattern.Pattern, i int) uint64 {
	end := subtreeEnd(p, i)
	var m uint64
	for j := i; j < end; j++ {
		m |= 1 << uint(j)
	}
	return m
}

// EvalPattern evaluates the whole pattern from per-node inputs, returning a
// full-width block in preorder column order.
func EvalPattern(p *pattern.Pattern, in Inputs, join JoinFunc) Block {
	return EvalSubPattern(p, p.FullMask(), in, join)
}

// Materialize evaluates pattern p over the document and returns its view
// rows (projection on stored nodes with derivation counts) — the customary
// semantics used both as ground truth and for initial view materialization.
func Materialize(d *xmltree.Document, p *pattern.Pattern) []Row {
	return ProjectStored(p, EvalPattern(p, DocInputs(d, p), nil), d)
}

// CompareTuples orders two equal-width stripes binding by binding, by ID
// document order.
func CompareTuples(a, b []dewey.ID) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// SameRelation reports whether a and b hold the same relation: they bind
// the same pattern nodes, in whatever column order, and every tuple of IDs,
// aligned by pattern node, has the same summed derivation count in both.
func SameRelation(a, b Block) bool {
	byNode := func(blk Block) []int { // blk's column positions by pattern node
		pos := make([]int, len(blk.Cols))
		for i := range pos {
			pos[i] = i
		}
		slices.SortFunc(pos, func(x, y int) int { return blk.Cols[x] - blk.Cols[y] })
		return pos
	}
	pa, pb := byNode(a), byNode(b)
	if !slices.EqualFunc(pa, pb, func(i, j int) bool { return a.Cols[i] == b.Cols[j] }) {
		return false
	}
	counts := map[string]int{}
	var key []byte
	for _, side := range []struct {
		blk  Block
		pos  []int
		sign int
	}{{a, pa, 1}, {b, pb, -1}} {
		for t := range side.blk.Len() {
			key = key[:0]
			for _, c := range side.pos {
				key = append(append(key, side.blk.Tuple(t)[c].Key()...), 0xFF)
			}
			counts[string(key)] += side.sign * side.blk.Counts[t]
		}
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}
