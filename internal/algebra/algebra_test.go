package algebra

import (
	"math/rand"
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

func TestStructuralJoinMatchesNestedLoop(t *testing.T) {
	d := mustDoc(t, fig12Doc)
	p := pattern.MustParse(`//a{ID}[//c{ID}]//b{ID}`)
	in := DocInputs(d, p)
	fast := EvalPattern(p, in, StructuralJoin)
	slow := EvalPattern(p, in, NestedLoopStructuralJoin)
	SortTuples(fast)
	SortTuples(slow)
	if len(fast) != len(slow) {
		t.Fatalf("sizes differ: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if CompareTuples(fast[i], slow[i]) != 0 || fast[i].Count != slow[i].Count {
			t.Fatalf("tuple %d differs", i)
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
