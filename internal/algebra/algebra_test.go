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
		if len(r.Entries) != 3 {
			t.Fatalf("entries %d", len(r.Entries))
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
	e := rows[0].Entries[0]
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
	if len(rows) != 1 || rows[0].Entries[1].Val != "A" {
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
	sort.Slice(out.Tuples, func(i, j int) bool {
		if c := CompareTuples(out.Tuples[i], out.Tuples[j]); c != 0 {
			return c < 0
		}
		return out.Tuples[i].Count < out.Tuples[j].Count
	})
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
	if len(fast.Tuples) != len(slow.Tuples) {
		t.Fatalf("%s (|L|=%d |R|=%d desc=%v): %d tuples, nested loop %d",
			what, len(left.Tuples), len(right.Tuples), desc, len(fast.Tuples), len(slow.Tuples))
	}
	for i := range fast.Tuples {
		if CompareTuples(fast.Tuples[i], slow.Tuples[i]) != 0 || fast.Tuples[i].Count != slow.Tuples[i].Count {
			t.Fatalf("%s (|L|=%d |R|=%d desc=%v): tuple %d differs from the nested loop's",
				what, len(left.Tuples), len(right.Tuples), desc, i)
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
			if len(right.Tuples) < len(left.Tuples) {
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
	bothAxes("many a, one b", as, 0, Block{Cols: bs.Cols, Tuples: bs.Tuples[:1]}, 1)
	bothAxes("one a, few b", Block{Cols: as.Cols, Tuples: as.Tuples[7:8]}, 0, bs, 1)
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
	if len(ac.Tuples) != 3 {
		t.Fatalf("(a, c) has %d tuples, want 3", len(ac.Tuples))
	}
	bothAxes("(a,c) over b, |L| < |R|", ac, 0, col(multi, 2, "b"), 2)
	bothAxes("(a,c) over one b, |R| < |L|", ac, 0, Block{Cols: []int{2}, Tuples: col(multi, 2, "b").Tuples[:1]}, 2)
	// A multi-column right block, joined on its second column.
	rb := StructuralJoin(col(multi, 3, "r"), 3, col(multi, 2, "b"), 2, true)
	bothAxes("a over (r,b)", col(multi, 0, "a"), 0, rb, 2)

	// Counts above one multiply.
	two, three := col(multi, 0, "a"), col(multi, 2, "b")
	for i := range two.Tuples {
		two.Tuples[i].Count = 2
	}
	for i := range three.Tuples {
		three.Tuples[i].Count = 3
	}
	if out := checkJoin(t, "counts", two, 0, three, 2, false); len(out.Tuples) != 4 || out.Tuples[0].Count != 6 {
		t.Fatalf("2 × 3 derivations joined to %+v", out.Tuples)
	}
	if out := checkJoin(t, "counts", Block{Cols: two.Cols, Tuples: two.Tuples[:1]}, 0, three, 2, true); len(out.Tuples) != 2 || out.Tuples[0].Count != 6 {
		t.Fatalf("2 × 3 derivations joined to %+v", out.Tuples)
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
				if len(out.Tuples) != 1 {
					t.Fatalf("%s desc=%v: %d tuples, want the one matching pair", c.name, desc, len(out.Tuples))
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
		emb := Embeddings(d, p)
		SortTuples(alg)
		if len(alg) != len(emb) {
			t.Fatalf("trial %d: algebra %d vs embeddings %d for %s over %s",
				trial, len(alg), len(emb), p, d)
		}
		for i := range alg {
			if CompareTuples(alg[i], emb[i]) != 0 {
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
	deltaMask := p.FullMask() &^ 1
	forest, roots := EvalForest(p, deltaMask, in, nil)
	if len(forest) != 2 || roots[0] != 1 || roots[1] != 3 {
		t.Fatalf("forest roots = %v", roots)
	}
	joined := AttachForest(p, block, forest, roots, nil)
	tuples := NormalizeColumns(p, joined)
	SortTuples(tuples)
	SortTuples(full)
	if len(tuples) != len(full) {
		t.Fatalf("attach %d vs full %d", len(tuples), len(full))
	}
	for i := range tuples {
		if CompareTuples(tuples[i], full[i]) != 0 {
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

func TestPathFilterItems(t *testing.T) {
	d := mustDoc(t, fig12Doc)
	items := DocItems(d, "b")
	// b nodes under c: a/c/b, a/c/b, a/f/c/b → 3; a/f/b is not.
	steps := []dewey.PathStep{{Label: "c", Desc: true}, {Label: "b", Desc: true}}
	got := PathFilterItems(items, steps)
	if len(got) != 3 {
		t.Fatalf("PathFilter //c//b = %d", len(got))
	}
}

func TestPathNavigateItems(t *testing.T) {
	d := mustDoc(t, fig12Doc)
	items := DocItems(d, "b")
	parents := PathNavigateItems(items)
	if len(parents) != len(items) {
		t.Fatalf("parents %d", len(parents))
	}
	for i, p := range parents {
		if !p.ID.IsParentOf(items[i].ID) {
			t.Fatalf("PathNavigate wrong at %d", i)
		}
	}
}
