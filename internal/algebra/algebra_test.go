package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fig12Doc is the document of the paper's Figure 12.
const fig12Doc = `<a><c><b>1</b><b>2</b></c><f><c><b>3</b></c><b>4</b></f></a>`

func TestEvalPatternFig12(t *testing.T) {
	// View v2 = //a{ID}[//c{ID}]//b{ID} over Figure 12 must yield the 8
	// tuples of the paper's table.
	d := mustDoc(t, fig12Doc)
	p := pattern.MustParse(`//a{ID}[//c{ID}]//b{ID}`)
	rows := Materialize(d, p)
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Count != 1 {
			t.Fatalf("unexpected count %d", r.Count)
		}
		if len(r.cells) != 3 {
			t.Fatalf("entries %d", len(r.cells))
		}
	}
}

func TestDerivationCounts(t *testing.T) {
	// //a{ID}[//b]: a has two b descendants → one tuple with count 2
	// (paper Example 4.8).
	d := mustDoc(t, `<a><c><b/></c><f><b/></f></a>`)
	p := pattern.MustParse(`//a{ID}[//b]`)
	rows := Materialize(d, p)
	if len(rows) != 1 || rows[0].Count != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestValuePredicate(t *testing.T) {
	d := mustDoc(t, `<r><a>5<b/></a><a>3<b/></a></r>`)
	p := pattern.MustParse(`//a{ID}[val="5"]//b{ID}`)
	// StringValue of <a>5<b/></a> is "5".
	rows := Materialize(d, p)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestValContMaterialization(t *testing.T) {
	d := mustDoc(t, `<r><a x="1">hi<b>there</b></a></r>`)
	p := pattern.MustParse(`//a{ID,val,cont}`)
	rows := Materialize(d, p)
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	e := NewShape(p).Entry(rows[0], 0)
	if e.Val != "hithere" {
		t.Fatalf("val = %q", e.Val)
	}
	if !strings.Contains(e.Cont, `<a x="1">hi<b>there</b></a>`) {
		t.Fatalf("cont = %q", e.Cont)
	}
}

func TestAttributePatternNodes(t *testing.T) {
	d := mustDoc(t, `<site><person id="p0"><name>A</name></person><person><name>B</name></person></site>`)
	p := pattern.MustParse(`//person{ID}[/@id]/name{ID,val}`)
	rows := Materialize(d, p)
	if len(rows) != 1 || NewShape(p).Entry(rows[0], 1).Val != "A" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestWildcardPatternNode(t *testing.T) {
	d := mustDoc(t, `<r><x><item/></x><y><item/></y><item/></r>`)
	p := pattern.MustParse(`//r{ID}/*/item{ID}`)
	rows := Materialize(d, p)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
}

// sortedJoin runs one join and returns its tuples as a sorted multiset:
// ordered by bindings, then by count, so that equal tuples emitted with
// different counts line up too.
func sortedJoin(join JoinFunc, left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	out := join(left, lIdx, right, rIdx, desc)
	sort.Sort(byTupleThenCount{stripes(out)})
	return out
}

type byTupleThenCount struct{ stripes }

func (s byTupleThenCount) Less(i, j int) bool {
	if c := CompareTuples(Block(s.stripes).Tuple(i), Block(s.stripes).Tuple(j)); c != 0 {
		return c < 0
	}
	return s.Counts[i] < s.Counts[j]
}

// tuples is the block of b's tuples [i, j), its arrays shared with b's.
func tuples(b Block, i, j int) Block {
	w := len(b.Cols)
	out := Block{Cols: b.Cols, IDs: b.IDs[i*w : j*w], Counts: b.Counts[i:j]}
	if b.Nodes != nil {
		out.Nodes = b.Nodes[i*w : j*w]
	}
	return out
}

// checkJoin holds one call of StructuralJoin to NestedLoopStructuralJoin:
// the same columns, and the same multiset of tuples with the same counts.
func checkJoin(t *testing.T, what string, left Block, lIdx int, right Block, rIdx int, desc bool) Block {
	t.Helper()
	fast := sortedJoin(StructuralJoin, left, lIdx, right, rIdx, desc)
	slow := sortedJoin(NestedLoopStructuralJoin, left, lIdx, right, rIdx, desc)
	if !slices.Equal(fast.Cols, slow.Cols) {
		t.Fatalf("%s: columns %v, nested loop %v", what, fast.Cols, slow.Cols)
	}
	if fast.Len() != slow.Len() {
		t.Fatalf("%s (|L|=%d |R|=%d desc=%v): %d tuples, nested loop %d",
			what, left.Len(), right.Len(), desc, fast.Len(), slow.Len())
	}
	for i := range fast.Len() {
		if CompareTuples(fast.Tuple(i), slow.Tuple(i)) != 0 || fast.Counts[i] != slow.Counts[i] {
			t.Fatalf("%s (|L|=%d |R|=%d desc=%v): tuple %d differs from the nested loop's",
				what, left.Len(), right.Len(), desc, i)
		}
	}
	return fast
}

// TestStructuralJoinMatchesNestedLoop is a per-call property: every join an
// evaluation of a random pattern over a random document makes — single- and
// multi-column blocks, either side the smaller — and a set of forced shapes
// on both sides of the build-side choice, agree with the nested-loop oracle
// as multisets with counts.
func TestStructuralJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	calls, buildRight := 0, 0
	for trial := 0; trial < 200; trial++ {
		d, p := randomDoc(rng), randomPattern(rng)
		EvalPattern(p, DocInputs(d, p), func(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
			calls++
			if right.Len() < left.Len() {
				buildRight++
			}
			return checkJoin(t, fmt.Sprintf("trial %d, %s", trial, p), left, lIdx, right, rIdx, desc)
		})
	}
	if buildRight == 0 || buildRight == calls {
		t.Fatalf("%d of %d random joins had the smaller right side: both build sides must be exercised", buildRight, calls)
	}

	col := func(d *xmltree.Document, idx int, label string) Block { return SingleColumn(idx, DocItems(d, label)) }
	bothAxes := func(what string, left Block, lIdx int, right Block, rIdx int) {
		t.Helper()
		checkJoin(t, what, left, lIdx, right, rIdx, true)
		checkJoin(t, what, left, lIdx, right, rIdx, false)
	}

	// |L| ≫ |R| and |R| ≫ |L|: forty a's, three of them with b's below.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40; i++ {
		switch i {
		case 7:
			sb.WriteString("<a><b/><c><b/></c></a>")
		case 20, 33:
			sb.WriteString("<a><c><b/></c></a>")
		default:
			sb.WriteString("<a/>")
		}
	}
	sb.WriteString("</r>")
	wide := mustDoc(t, sb.String())
	as, bs := col(wide, 0, "a"), col(wide, 1, "b")
	bothAxes("many a, few b", as, 0, bs, 1)
	bothAxes("many a, one b", as, 0, tuples(bs, 0, 1), 1)
	bothAxes("one a, few b", tuples(as, 7, 8), 0, bs, 1)
	bothAxes("one r, many a", col(wide, 2, "r"), 2, as, 0)

	// Nested same-label ancestors: the inner a is both a binding and an
	// ancestor of one.
	nested := mustDoc(t, `<a><a><b/></a><b/></a>`)
	bothAxes("nested a over b", col(nested, 0, "a"), 0, col(nested, 1, "b"), 1)
	bothAxes("nested a over a", col(nested, 0, "a"), 0, col(nested, 1, "a"), 1)

	// A multi-column left block whose join column repeats a key: (a, c)
	// holds each a once per c below it.
	multi := mustDoc(t, `<r><a><c/><c/><b/><b/></a><a><c/><b/></a><a><b/></a></r>`)
	ac := StructuralJoin(col(multi, 0, "a"), 0, col(multi, 1, "c"), 1, true)
	if ac.Len() != 3 {
		t.Fatalf("(a, c) has %d tuples, want 3", ac.Len())
	}
	bothAxes("(a,c) over b, |L| < |R|", ac, 0, col(multi, 2, "b"), 2)
	bothAxes("(a,c) over one b, |R| < |L|", ac, 0, tuples(col(multi, 2, "b"), 0, 1), 2)
	// A multi-column right block, joined on its second column.
	rb := StructuralJoin(col(multi, 3, "r"), 3, col(multi, 2, "b"), 2, true)
	bothAxes("a over (r,b)", col(multi, 0, "a"), 0, rb, 2)

	// Counts above one multiply.
	two, three := col(multi, 0, "a"), col(multi, 2, "b")
	for i := range two.Counts {
		two.Counts[i] = 2
	}
	for i := range three.Counts {
		three.Counts[i] = 3
	}
	if out := checkJoin(t, "counts", two, 0, three, 2, false); out.Len() != 4 || out.Counts[0] != 6 {
		t.Fatalf("2 × 3 derivations joined to %+v", out)
	}
	if out := checkJoin(t, "counts", tuples(two, 0, 1), 0, three, 2, true); out.Len() != 2 || out.Counts[0] != 6 {
		t.Fatalf("2 × 3 derivations joined to %+v", out)
	}

	// An empty side, either one.
	none := Block{Cols: []int{1}}
	bothAxes("empty right", as, 0, none, 1)
	bothAxes("empty left", Block{Cols: []int{0}}, 0, bs, 1)

	// A root-level right binding has no parent and no ancestor to probe for.
	bothAxes("root on the right, |R| < |L|", as, 0, col(wide, 2, "r"), 2)
	bothAxes("root on the right, |L| ≤ |R|", col(wide, 2, "r"), 2, col(wide, 3, "r"), 3)
}

// TestJoinAllocatesForItsSmallSide holds the join's memory to its smaller
// input: 10,000 × 1 and 1 × 10,000 with one matching pair, on both axes,
// each inside 4 KB. Hashing the large side is ~0.8 MB.
func TestJoinAllocatesForItsSmallSide(t *testing.T) {
	const n = 10000
	root := dewey.NewRoot("r")
	as, bs := make([]Item, n), make([]Item, n)
	for i := range as {
		as[i] = Item{ID: root.Child("a", dewey.OrdAt(i))}
		bs[i] = Item{ID: as[i].ID.Child("b", dewey.OrdAt(0))}
	}
	manyA, manyB := SingleColumn(0, as), SingleColumn(1, bs)
	oneA, oneB := SingleColumn(0, as[n/2:n/2+1]), SingleColumn(1, bs[n/2:n/2+1])
	for _, c := range []struct {
		name        string
		left, right Block
	}{
		{"10000 × 1", manyA, oneB},
		{"1 × 10000", oneA, manyB},
	} {
		for _, desc := range []bool{true, false} {
			// The least of three: TotalAlloc is process-wide, and the test
			// binary's own goroutines allocate now and then.
			least := uint64(math.MaxUint64)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				out := StructuralJoin(c.left, 0, c.right, 1, desc)
				runtime.ReadMemStats(&after)
				if out.Len() != 1 {
					t.Fatalf("%s desc=%v: %d tuples, want the one matching pair", c.name, desc, out.Len())
				}
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%s desc=%v allocated %d B", c.name, desc, least)
			if least >= 4<<10 {
				t.Errorf("%s desc=%v allocated %d B, budget 4 KB", c.name, desc, least)
			}
		}
	}
}

// randomDoc builds a random small document over labels a..d with text.
func randomDoc(rng *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	var build func(depth int) string
	build = func(depth int) string {
		l := labels[rng.Intn(len(labels))]
		var sb strings.Builder
		sb.WriteString("<" + l + ">")
		if rng.Intn(3) == 0 {
			sb.WriteString([]string{"5", "3", "x"}[rng.Intn(3)])
		}
		if depth < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				sb.WriteString(build(depth + 1))
			}
		}
		sb.WriteString("</" + l + ">")
		return sb.String()
	}
	doc := "<r>" + build(1) + build(1) + build(1) + "</r>"
	d, err := xmltree.ParseString(doc)
	if err != nil {
		panic(err)
	}
	return d
}

func randomPattern(rng *rand.Rand) *pattern.Pattern {
	labels := []string{"a", "b", "c", "d", "*"}
	var build func(depth int) *pattern.Node
	build = func(depth int) *pattern.Node {
		n := &pattern.Node{
			Label: labels[rng.Intn(len(labels))],
			Desc:  rng.Intn(2) == 0,
			Store: pattern.StoreID,
		}
		if rng.Intn(4) == 0 {
			n.HasPred = true
			n.PredVal = "5"
		}
		if depth < 3 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	root := build(1)
	root.Desc = true
	return pattern.MustNew(root)
}

// TestAlgebraEqualsEmbeddings is the core semantic property: the join-based
// evaluator agrees with direct embedding enumeration on random documents
// and patterns, including derivation counts.
func TestAlgebraEqualsEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := randomDoc(rng)
		p := randomPattern(rng)
		alg := EvalPattern(p, DocInputs(d, p), nil)
		emb := embeddings(d, p)
		sortTuples(alg)
		if alg.Len() != emb.Len() {
			t.Fatalf("trial %d: algebra %d vs embeddings %d for %s over %s",
				trial, alg.Len(), emb.Len(), p, d)
		}
		for i := range alg.Len() {
			if CompareTuples(alg.Tuple(i), emb.Tuple(i)) != 0 {
				t.Fatalf("trial %d: tuple %d differs for %s", trial, i, p)
			}
		}
	}
}

func TestEvalForestAndAttach(t *testing.T) {
	// Split //a[//b//c]//d into block {a} and forest {b,c},{d}; attaching
	// must reproduce full evaluation.
	d := mustDoc(t, `<a><b><c/></b><d/><b><c/><c/></b></a>`)
	p := pattern.MustParse(`//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	in := DocInputs(d, p)

	full := EvalPattern(p, in, nil)

	block := EvalSubPattern(p, 1, in, nil) // {a}
	var s *Scratch                         // nil: allocate
	joined := s.JoinForest(p, block, p.FullMask()&^1, in, nil)
	if !slices.Equal(joined.Cols, []int{0, 1, 2, 3}) {
		t.Fatalf("forest roots joined as %v, want {b,c} then {d}", joined.Cols)
	}
	attached := normalizeColumns(p, joined)
	sortTuples(attached)
	sortTuples(full)
	if attached.Len() != full.Len() {
		t.Fatalf("attach %d vs full %d", attached.Len(), full.Len())
	}
	for i := range attached.Len() {
		if CompareTuples(attached.Tuple(i), full.Tuple(i)) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestProjectBlockPartial(t *testing.T) {
	d := mustDoc(t, fig12Doc)
	p := pattern.MustParse(`//a{ID}[//c{ID}]//b{ID}`)
	b := EvalSubPattern(p, 1|1<<1, DocInputs(d, p), nil) // a, c
	rows := ProjectBlock(p, b, []int{0, 1}, d)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestFilterWithoutNodeResolvesThroughDoc(t *testing.T) {
	d := mustDoc(t, `<r><a>5</a><a>3</a></r>`)
	p := pattern.MustParse(`//a{ID}[val="5"]`)
	items := DocItems(d, "a")
	for i := range items {
		items[i].Node = nil // simulate standalone items
	}
	got := Filter(items, p.Nodes[0], d)
	if len(got) != 1 {
		t.Fatalf("filtered %d", len(got))
	}
}

// TestAttachForestAcrossAGap attaches a forest to a block whose columns
// skip a node, {a, d} then {b, c} — the shape of a maintenance term whose
// R-mask is not a prefix of preorder: the result's columns are out of
// preorder, and permuted back, its IDs, live nodes and counts must be a
// full evaluation's. The blocks are lent by a scratch, as in propagation.
func TestAttachForestAcrossAGap(t *testing.T) {
	d := mustDoc(t, `<a><b><c/></b><d/><b><c/><c/></b></a>`)
	p := pattern.MustParse(`//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	in := DocInputs(d, p)
	full := EvalPattern(p, in, nil)
	s := new(Scratch)
	joined := s.JoinForest(p, s.EvalSubPattern(p, 1|1<<3, in, nil), 1<<1|1<<2, in, nil)
	if slices.IsSorted(joined.Cols) {
		t.Fatalf("columns %v are in preorder already", joined.Cols)
	}
	got := normalizeColumns(p, joined)
	sortTuples(got)
	sortTuples(full)
	if !slices.Equal(got.Cols, full.Cols) || !slices.Equal(got.IDs, full.IDs) || !slices.Equal(got.Nodes, full.Nodes) || !slices.Equal(got.Counts, full.Counts) {
		t.Fatalf("normalized %+v, full evaluation %+v", got, full)
	}
}

// TestJoinKeepsLiveNodes: a block without live nodes — a materialized
// snowcap's — joined with one that has them keeps the other side's nodes
// and a nil for each of its own bindings, on either side of the join and
// with either build side; two blocks without nodes make a block without.
func TestJoinKeepsLiveNodes(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><b/></a><a><b/></a></r>`)
	as, bs := SingleColumn(0, DocItems(d, "a")), SingleColumn(1, DocItems(d, "b"))
	bare := func(b Block) Block { b.Nodes = nil; return b }
	for _, join := range []JoinFunc{StructuralJoin, NestedLoopStructuralJoin} {
		for _, c := range []struct {
			left, right Block
			live        []bool // which columns keep their nodes
		}{
			{bare(as), bs, []bool{false, true}},
			{bare(as), tuples(bs, 0, 1), []bool{false, true}},
			{as, bare(bs), []bool{true, false}},
			{tuples(as, 0, 1), bare(bs), []bool{true, false}},
			{as, bs, []bool{true, true}},
			{bare(as), bare(bs), nil},
		} {
			out := join(c.left, 0, c.right, 1, true)
			if out.Len() == 0 {
				t.Fatal("the join is empty")
			}
			if (out.Nodes == nil) != (c.live == nil) {
				t.Fatalf("live %v: the output has Nodes %v", c.live, out.Nodes)
			}
			for i, id := range out.IDs {
				n := out.node(i/2, i%2)
				switch {
				case c.live == nil:
				case !c.live[i%2] && n != nil:
					t.Fatalf("live %v: binding %d has node %v", c.live, i, n.ID())
				case c.live[i%2] && (n == nil || !n.ID().Equal(id)):
					t.Fatalf("live %v: binding %d of %v has node %v", c.live, i, id, n)
				}
			}
		}
	}
}

// normalizeColumns permutes a full-width block's columns into preorder
// order. A block already in that order is returned as it is.
func normalizeColumns(p *pattern.Pattern, b Block) Block {
	if len(b.Cols) != p.Size() {
		panic("algebra: normalizeColumns on non-full block")
	}
	if slices.IsSorted(b.Cols) {
		return b
	}
	w := len(b.Cols)
	out := Block{Cols: make([]int, w), IDs: make([]dewey.ID, len(b.IDs)), Counts: slices.Clone(b.Counts)}
	if b.Nodes != nil {
		out.Nodes = make([]*xmltree.Node, len(b.Nodes))
	}
	for pos, idx := range b.Cols {
		out.Cols[idx] = idx
		for t := range b.Len() {
			out.IDs[t*w+idx] = b.IDs[t*w+pos]
			if b.Nodes != nil {
				out.Nodes[t*w+idx] = b.Nodes[t*w+pos]
			}
		}
	}
	return out
}

// embeddings computes all embeddings of p in the document by direct
// recursive tree matching — an algebra-free ground truth used by the tests
// to validate the join-based evaluator. The block is full-width, in
// preorder column order, and sorted.
func embeddings(d *xmltree.Document, p *pattern.Pattern) Block {
	out := Block{Cols: make([]int, p.Size()), Nodes: []*xmltree.Node{}}
	for i := range out.Cols {
		out.Cols[i] = i
	}
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
			for _, it := range binding {
				out.IDs = append(out.IDs, it.ID)
				out.Nodes = append(out.Nodes, it.Node)
			}
			out.Counts = append(out.Counts, 1)
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
	sortTuples(out)
	return out
}

// sortTuples orders a block's tuples by their bindings' document order, in
// place.
func sortTuples(b Block) { sort.Sort(stripes(b)) }

// stripes sorts a block's tuples, moving each one's IDs, live nodes and
// count together.
type stripes Block

func (s stripes) Len() int           { return len(s.Counts) }
func (s stripes) Less(i, j int) bool { return CompareTuples(Block(s).Tuple(i), Block(s).Tuple(j)) < 0 }
func (s stripes) Swap(i, j int) {
	w := len(s.Cols)
	for c := range w {
		s.IDs[i*w+c], s.IDs[j*w+c] = s.IDs[j*w+c], s.IDs[i*w+c]
		if s.Nodes != nil {
			s.Nodes[i*w+c], s.Nodes[j*w+c] = s.Nodes[j*w+c], s.Nodes[i*w+c]
		}
	}
	s.Counts[i], s.Counts[j] = s.Counts[j], s.Counts[i]
}

// TestSameRelation: two blocks are the same relation when they bind the
// same pattern nodes and hold the same tuples with the same counts, whatever
// the order of their columns or tuples; a column set, a binding or a count
// apart, they are not.
func TestSameRelation(t *testing.T) {
	root := dewey.NewRoot("r")
	a, b, c := root.Child("a", dewey.OrdAt(0)), root.Child("b", dewey.OrdAt(1)), root.Child("c", dewey.OrdAt(2))
	ab := Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b, a, c}, Counts: []int{1, 2}}
	for _, c := range []struct {
		what  string
		other Block
		same  bool
	}{
		{"itself", ab, true},
		{"columns swapped", Block{Cols: []int{1, 0}, IDs: []dewey.ID{b, a, c, a}, Counts: []int{1, 2}}, true},
		{"tuples swapped", Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, c, a, b}, Counts: []int{2, 1}}, true},
		{"a count split over two tuples", Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b, a, c, a, c}, Counts: []int{1, 1, 1}}, true},
		{"live nodes kept", Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b, a, c}, Nodes: make([]*xmltree.Node, 4), Counts: []int{1, 2}}, true},
		{"another pattern node", Block{Cols: []int{0, 2}, IDs: []dewey.ID{a, b, a, c}, Counts: []int{1, 2}}, false},
		{"columns swapped, bindings not", Block{Cols: []int{1, 0}, IDs: []dewey.ID{a, b, a, c}, Counts: []int{1, 2}}, false},
		{"a count", Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b, a, c}, Counts: []int{1, 1}}, false},
		{"a tuple less", Block{Cols: []int{0, 1}, IDs: []dewey.ID{a, b}, Counts: []int{1}}, false},
		{"one column", Block{Cols: []int{0}, IDs: []dewey.ID{a}, Counts: []int{3}}, false},
	} {
		if got := SameRelation(ab, c.other); got != c.same {
			t.Errorf("%s: SameRelation %v, want %v", c.what, got, c.same)
		}
		if got := SameRelation(c.other, ab); got != c.same {
			t.Errorf("%s, the other way: SameRelation %v, want %v", c.what, got, c.same)
		}
	}
}

// TestRowIs32Bytes: a row is a slice of cells and a count. A view's run
// copies rows by value on every edit of a leaf, so a second slice in the
// header (56 bytes) would cost more than it saves.
func TestRowIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Row{}); n != 32 {
		t.Fatalf("a Row is %d bytes, want 32", n)
	}
}

// TestShapeLaysOutIDsThenImages pins the cell layout: the stored nodes' ID
// keys first, in pattern-node order, then each node's val before its cont,
// only for what the pattern stores; Entry reads back what Pack wrote, and
// Compare orders by every ID and by nothing else.
func TestShapeLaysOutIDsThenImages(t *testing.T) {
	p := pattern.MustParse(`/site{ID}/people//person{ID,cont}/name{ID,val,cont}`)
	s := NewShape(p)
	root := dewey.NewRoot("site")
	person := root.Child("people", dewey.OrdAt(0)).Child("person", dewey.OrdAt(1))
	name := person.Child("name", dewey.OrdAt(0))
	in := []RowEntry{
		{NodeIdx: 0, ID: root},
		{NodeIdx: 2, ID: person, Cont: "<person/>"},
		{NodeIdx: 3, ID: name, Val: "Ann", Cont: "<name>Ann</name>"},
	}
	if s.Width() != 3 {
		t.Fatalf("width %d, want 3", s.Width())
	}
	r := s.Pack(in, 2)
	want := []string{root.Key(), person.Key(), name.Key(), "<person/>", "Ann", "<name>Ann</name>"}
	if !slices.Equal(r.cells, want) || cap(r.cells) != len(want) {
		t.Fatalf("cells %q (cap %d), want %q", r.cells, cap(r.cells), want)
	}
	for i, e := range in {
		if got := s.Entry(r, i); got != e {
			t.Errorf("entry %d reads back as %+v, want %+v", i, got, e)
		}
	}
	for i := range in {
		moved := slices.Clone(in)
		moved[i].ID = moved[i].ID.Child("x", dewey.OrdAt(0))
		if s.Compare(r, s.Pack(moved, 2)) >= 0 {
			t.Errorf("a row whose entry %d binds a later node does not sort after it", i)
		}
	}
	images := slices.Clone(in)
	images[2].Val = "Bob"
	if s.Compare(r, s.Pack(images, 1)) != 0 {
		t.Error("rows binding the same nodes compare unequal on their images")
	}
}

// ProjectBlock projects a block onto the given pattern node indexes,
// ascending, deduplicating and count-summing.
func ProjectBlock(p *pattern.Pattern, b Block, indexes []int, doc *xmltree.Document) []Row {
	return (*Scratch)(nil).ProjectCounted(shapeOf(p, indexes), b, doc, ProjectCounters{})
}
