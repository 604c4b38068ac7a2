package rewrite

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
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

func mkView(t *testing.T, d *xmltree.Document, name, src string) *View {
	t.Helper()
	p := pattern.MustParse(src)
	rows := algebra.Materialize(d, p)
	return &View{Name: name, Pattern: p, Rows: store.NewViewOf(algebra.NewShape(p), rows)}
}

// sameRows is the full oracle over rows of one query's shape: same rows in
// the same order, and for every stored node the same ID, value and content
// (the shape fixes its pattern index) — and the same derivation count,
// which ID-only comparisons cannot see.
func sameRows(a, b []algebra.Row) bool {
	return slices.EqualFunc(a, b, algebra.Row.Equal)
}

const doc1 = `<a><c><b>5</b><b>7</b></c><f><c><b>5</b></c><b>9</b></f></a>`

func TestSingleViewExactMatch(t *testing.T) {
	d := mustDoc(t, doc1)
	v := mkView(t, d, "v", `//a{ID}//b{ID}`)
	q := pattern.MustParse(`//a{ID}//b{ID}`)
	rows, plan, err := Answer(q, []*View{v})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "single" {
		t.Fatalf("plan %v", plan.Explain())
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("rows differ from direct evaluation")
	}
}

func TestSingleViewChildFromDescendant(t *testing.T) {
	// Query wants parent-child; the view stores ancestor-descendant pairs
	// with IDs, so the residual ≺ check runs on the stored IDs.
	d := mustDoc(t, doc1)
	v := mkView(t, d, "v", `//c{ID}//b{ID}`)
	q := pattern.MustParse(`//c{ID}/b{ID}`)
	rows, _, err := Answer(q, []*View{v})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("child-axis residual filter wrong")
	}
	// The reverse (query // from view /) must be refused: the view misses
	// deeper pairs.
	vChild := mkView(t, d, "vc", `//c{ID}/b{ID}`)
	qDesc := pattern.MustParse(`//c{ID}//b{ID}`)
	if _, _, err := Answer(qDesc, []*View{vChild}); err == nil {
		t.Fatal("descendant query answered from child-only view")
	}
}

func TestRootAnchoredFromDescendantView(t *testing.T) {
	// The query anchors its root at the document root; the view holds every
	// a, so the residual check is on the stored ID's level.
	d := mustDoc(t, `<a><a><b>1</b></a><b>2</b></a>`)
	v := mkView(t, d, "v", `//a{ID}//b{ID,val}`)
	q := pattern.MustParse(`/a{ID}/b{ID,val}`)
	rows, _, err := Answer(q, []*View{v})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatalf("root-anchoring residual wrong: %+v", rows)
	}
	// The reverse is refused: a root-anchored view misses the inner a.
	vRoot := mkView(t, d, "vr", `/a{ID}//b{ID,val}`)
	if _, _, err := Answer(pattern.MustParse(`//a{ID}//b{ID,val}`), []*View{vRoot}); err == nil {
		t.Fatal("unanchored query answered from a root-anchored view")
	}
}

func TestSingleViewValuePostFilter(t *testing.T) {
	d := mustDoc(t, doc1)
	v := mkView(t, d, "v", `//c{ID}//b{ID,val}`)
	q := pattern.MustParse(`//c{ID}//b{ID,val}[val="5"]`)
	rows, _, err := Answer(q, []*View{v})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("value post-filter wrong")
	}
	// Without the stored val the predicate cannot be re-checked.
	vNoVal := mkView(t, d, "nv", `//c{ID}//b{ID}`)
	if _, _, err := Answer(q, []*View{vNoVal}); err == nil {
		t.Fatal("predicate query answered without stored values")
	}
}

func TestViewWithExtraPredicateRefused(t *testing.T) {
	d := mustDoc(t, doc1)
	v := mkView(t, d, "v", `//c{ID}//b{ID}[val="5"]`)
	q := pattern.MustParse(`//c{ID}//b{ID}`)
	if _, _, err := Answer(q, []*View{v}); err == nil {
		t.Fatal("view filtering more than the query was accepted")
	}
}

func TestStitchTwoViews(t *testing.T) {
	d := mustDoc(t, doc1)
	vTop := mkView(t, d, "top", `//a{ID}//c{ID}`)
	vBot := mkView(t, d, "bot", `//c{ID}//b{ID}`)
	q := pattern.MustParse(`//a{ID}//c{ID}//b{ID}`)
	rows, plan, err := Answer(q, []*View{vTop, vBot})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "stitch" || plan.SplitNode != 1 {
		t.Fatalf("plan %s", plan.Explain())
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatalf("stitched rows differ from direct evaluation")
	}
}

func TestStitchPreservesCounts(t *testing.T) {
	// Query projects only the a node: counts must aggregate embeddings.
	d := mustDoc(t, doc1)
	vTop := mkView(t, d, "top", `//a{ID}//c{ID}`)
	vBot := mkView(t, d, "bot", `//c{ID}//b{ID}`)
	q := pattern.MustParse(`//a{ID}[//c//b]`)
	// The rewrite needs stored IDs on all nodes of each view; the query
	// itself stores only a.
	rows, _, err := Answer(q, []*View{vTop, vBot})
	if err != nil {
		t.Fatal(err)
	}
	want := algebra.Materialize(d, q)
	if !sameRows(rows, want) {
		t.Fatalf("counts differ: got %+v want %+v", rows, want)
	}
}

func TestStoreCoverageRefused(t *testing.T) {
	// Regression: the query stores b's value but the view kept only IDs.
	// Before the coverage check in matchPatterns the rewrite returned rows
	// with empty values and correct counts — exactly the bug class a
	// count-only comparison cannot see.
	d := mustDoc(t, doc1)
	v := mkView(t, d, "ids", `//c{ID}//b{ID}`)
	q := pattern.MustParse(`//c{ID}//b{ID,val}`)
	if _, _, err := Answer(q, []*View{v}); err == nil {
		t.Fatal("view without stored values answered a val-storing query")
	}
	// With values stored the same query is answerable and content-correct.
	vv := mkView(t, d, "vals", `//c{ID}//b{ID,val}`)
	rows, _, err := Answer(q, []*View{vv})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("values differ from direct evaluation")
	}
	// Same for cont.
	qc := pattern.MustParse(`//c{ID}//b{ID,cont}`)
	if _, _, err := Answer(qc, []*View{vv}); err == nil {
		t.Fatal("view without stored content answered a cont-storing query")
	}
}

func TestIntersectTwoViews(t *testing.T) {
	// Root-pivot decomposition: neither single view nor any stitch split can
	// answer a branching query, but one view per root subtree joined on the
	// root ID can.
	d := mustDoc(t, doc1)
	vc := mkView(t, d, "ac", `//a{ID}//c{ID}`)
	vb := mkView(t, d, "ab", `//a{ID}//b{ID}`)
	q := pattern.MustParse(`//a{ID}[//c]//b{ID}`)
	rows, plan, err := Answer(q, []*View{vc, vb})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "intersect" || len(plan.Views) != 2 {
		t.Fatalf("plan %s", plan.Explain())
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("intersected rows differ from direct evaluation")
	}
}

func TestIntersectThreeViews(t *testing.T) {
	d := mustDoc(t, doc1)
	views := []*View{
		mkView(t, d, "ab", `//a{ID}//b{ID}`),
		mkView(t, d, "ac", `//a{ID}//c{ID}`),
		mkView(t, d, "af", `//a{ID}//f{ID}`),
	}
	q := pattern.MustParse(`//a{ID}[//b][//c]//f{ID}`)
	rows, plan, err := Answer(q, views)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "intersect" || len(plan.Views) != 3 {
		t.Fatalf("plan %s", plan.Explain())
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("3-way intersection differs from direct evaluation")
	}
}

func TestIntersectPreservesCounts(t *testing.T) {
	// Query projects only the root: each row's count must be the product of
	// the per-subtree embedding counts.
	d := mustDoc(t, doc1)
	views := []*View{
		mkView(t, d, "ab", `//a{ID}//b{ID}`),
		mkView(t, d, "ac", `//a{ID}//c{ID}`),
	}
	q := pattern.MustParse(`//a{ID}[//b][//c]`)
	rows, plan, err := Answer(q, views)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "intersect" {
		t.Fatalf("plan %s", plan.Explain())
	}
	want := algebra.Materialize(d, q)
	if !sameRows(rows, want) {
		t.Fatalf("counts differ: got %+v want %+v", rows, want)
	}
}

// TestMultiStoredNodesAndCounts drives the executor's general case: answer
// columns supplied by more than one piece (so a non-driving piece keeps its
// rows, not just count sums), columns the query projects away (so rows
// collapse and counts add up), values and contents carried through a join —
// against direct evaluation, over the live document and over its image.
func TestMultiStoredNodesAndCounts(t *testing.T) {
	const doc = `<a><c><b>5</b><b>7</b><a><c><b>5</b></c></a></c><f><c><b>5</b></c><b>9</b></f><c/></a>`
	live := mustDoc(t, doc)
	for name, d := range map[string]*xmltree.Document{"live": live, "image": live.Snapshot()} {
		lib := func(srcs ...string) []*View {
			var vs []*View
			for _, src := range srcs {
				vs = append(vs, mkView(t, d, src, src))
			}
			return vs
		}
		for _, c := range []struct {
			query, kind string
			views       []*View
		}{
			// One stored leaf under nested ancestors: rows collapse, counts add.
			{`//a//b{ID,val}`, "single", lib(`//a{ID}//b{ID,val}`)},
			{`//a//c//b{ID}`, "stitch", lib(`//a{ID}//c{ID}`, `//c{ID}//b{ID}`)},
			// Stored nodes on both sides of the split, the split node among them.
			{`//a{ID}//c{ID}//b{ID,val}`, "stitch", lib(`//a{ID}//c{ID}`, `//c{ID}//b{ID,val}`)},
			{`//a{ID}//c//b{ID,cont}`, "stitch", lib(`//a{ID}//c{ID}`, `//c{ID}//b{ID,cont}`)},
			{`//a//c{ID}/b{ID}[val="5"]`, "stitch", lib(`//a{ID}//c{ID}`, `//c{ID}//b{ID,val}`)},
			// Stored nodes in several root subtrees: every piece supplies columns.
			{`//a{ID}[//c{ID}]//b{ID,val}`, "intersect", lib(`//a{ID}//c{ID}`, `//a{ID}//b{ID,val}`)},
			{`//a[//c{ID}][//f{ID}]//b{ID}`, "intersect", lib(`//a{ID}//c{ID}`, `//a{ID}//f{ID}`, `//a{ID}//b{ID}`)},
			// Only the root stored: every other piece is a count.
			{`//a{ID}[//c][//f]//b`, "intersect", lib(`//a{ID}//c{ID}`, `//a{ID}//f{ID}`, `//a{ID}//b{ID}`)},
		} {
			q := pattern.MustParse(c.query)
			rows, plan, err := Answer(q, c.views)
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.query, err)
			}
			if plan.Kind != c.kind {
				t.Fatalf("%s %s: plan %s, want %s", name, c.query, plan.Explain(), c.kind)
			}
			want := algebra.Materialize(d, q)
			if len(want) == 0 {
				t.Fatalf("%s %s: fixture matches nothing", name, c.query)
			}
			if !sameRows(rows, want) {
				t.Fatalf("%s %s (%s):\n got %+v\nwant %+v", name, c.query, plan.Explain(), rows, want)
			}
		}
	}
}

func TestPlanCostingPrefersSmallerView(t *testing.T) {
	// Two views answer the same query; the plan must scan the smaller one.
	d := mustDoc(t, `<a><c><x><b>1</b></x><b>2</b></c></a>`)
	big := mkView(t, d, "big", `//c{ID}//b{ID}`)  // 2 rows
	tiny := mkView(t, d, "tiny", `//c{ID}/b{ID}`) // 1 row
	if big.Rows.Len() <= tiny.Rows.Len() {
		t.Fatalf("fixture broken: big=%d tiny=%d", big.Rows.Len(), tiny.Rows.Len())
	}
	q := pattern.MustParse(`//c{ID}/b{ID}`)
	rows, plan, err := Answer(q, []*View{big, tiny})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "single" || plan.Views[0] != "tiny" || plan.Cost != tiny.Rows.Len() {
		t.Fatalf("expected cheapest single view, got %s (cost %d)", plan.Explain(), plan.Cost)
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("rows differ from direct evaluation")
	}
}

func TestRowSliceSource(t *testing.T) {
	// Snapshot-shaped row slices must answer identically to store views.
	d := mustDoc(t, doc1)
	p := pattern.MustParse(`//c{ID}//b{ID}`)
	v := &View{Name: "slice", Pattern: p, Rows: dewey.ChunksOf(algebra.Materialize(d, p))}
	q := pattern.MustParse(`//c{ID}/b{ID}`)
	rows, _, err := Answer(q, []*View{v})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rows, algebra.Materialize(d, q)) {
		t.Fatal("RowSlice-backed rewrite differs from direct evaluation")
	}
}

// TestSideReadsItsRunInPlaceWhenItAscends: a side whose view's rows ascend
// by the join key is read where the view holds them; one whose rows do not
// — listitems nested under a parlist's listitem — is a sorted copy. Both
// answer as direct evaluation does.
func TestSideReadsItsRunInPlaceWhenItAscends(t *testing.T) {
	fuzzOnce.Do(fuzzSetup)
	w := fuzzWorlds[2]
	for _, c := range []struct {
		query   string
		inPlace bool
	}{
		{`//open_auction{ID}//bidder//increase{ID,val}`, true},
		{`//open_auction{ID}[//bidder]//initial{ID,val}`, true},
		{`//parlist//listitem//text{ID,val}`, false},
	} {
		q := pattern.MustParse(c.query)
		plan, err := Compile(q, w.lib)
		if err != nil || plan.Kind == "single" {
			t.Fatalf("%s: plan %v, err %v, want a join", c.query, plan, err)
		}
		s := plan.executor().sides[0]
		if inPlace := s.rows == s.p.view.Rows.(RowSlice); inPlace != c.inPlace {
			t.Errorf("%s (%s): side read in place %v, want %v", c.query, plan.Explain(), inPlace, c.inPlace)
		}
		if rows, _ := plan.rows(); !sameRows(rows, algebra.Materialize(w.doc, q)) {
			t.Errorf("%s (%s): rows differ from direct evaluation", c.query, plan.Explain())
		}
	}
}

func TestNoRewriteFound(t *testing.T) {
	d := mustDoc(t, doc1)
	v := mkView(t, d, "v", `//a{ID}//f{ID}`)
	q := pattern.MustParse(`//a{ID}//b{ID}`)
	if _, _, err := Answer(q, []*View{v}); err == nil {
		t.Fatal("expected no-rewrite error")
	}
	if _, _, err := Answer(q, nil); err == nil {
		t.Fatal("expected error with no views")
	}
}

func TestIDIncompleteViewSkipped(t *testing.T) {
	d := mustDoc(t, doc1)
	p := pattern.MustParse(`//a{ID}//b`) // b stores nothing
	rows := algebra.Materialize(d, p)
	v := &View{Name: "partial", Pattern: p, Rows: store.NewViewOf(algebra.NewShape(p), rows)}
	q := pattern.MustParse(`//a{ID}//b{ID}`)
	if _, _, err := Answer(q, []*View{v}); err == nil {
		t.Fatal("ID-incomplete view must not answer")
	}
}

// TestRandomizedAgainstDirect: random documents; a library of ID-complete
// views; random queries drawn from rewritable shapes must match direct
// evaluation exactly.
func TestRandomizedAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	labels := []string{"a", "b", "c"}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		var sb strings.Builder
		sb.WriteString("<" + l + ">")
		if lvl < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				sb.WriteString(build(lvl + 1))
			}
		}
		sb.WriteString("</" + l + ">")
		return sb.String()
	}
	queries := []string{
		`//a{ID}//b{ID}`,
		`//a{ID}/b{ID}`,
		`//a{ID}//b{ID}//c{ID}`,
		`//a{ID}//c{ID}//b{ID}`,
		`//a{ID}[//b{ID}]`,
		`//a{ID}[//b][//c]`,
		`//a{ID}[//b]//c{ID}`,
		`//a{ID}[//c]//b{ID}`,
		`//a//b{ID}`,
		`//a//b//c{ID}`,
		`//a{ID}//b//c{ID}`,
		`//a[//b{ID}]//c{ID}`,
		`//a[//c]//b{ID}`,
	}
	answered := map[string]int{}
	for trial := 0; trial < 50; trial++ {
		d := mustDoc(t, "<a>"+build(1)+build(1)+"</a>")
		if trial%2 == 1 {
			d = d.Snapshot() // every other trial runs over an image
		}
		views := []*View{
			mkView(t, d, "ab", `//a{ID}//b{ID}`),
			mkView(t, d, "ac", `//a{ID}//c{ID}`),
			mkView(t, d, "bc", `//b{ID}//c{ID}`),
			mkView(t, d, "cb", `//c{ID}//b{ID}`),
		}
		for _, qs := range queries {
			q := pattern.MustParse(qs)
			rows, plan, err := Answer(q, views)
			if err != nil {
				continue // not answerable from this library — fine
			}
			answered[plan.Kind]++
			if !sameRows(rows, algebra.Materialize(d, q)) {
				t.Fatalf("trial %d query %s: rewrite differs from direct evaluation", trial, qs)
			}
		}
	}
	for _, kind := range []string{"single", "stitch", "intersect"} {
		if answered[kind] == 0 {
			t.Errorf("no %s plan was exercised", kind)
		}
	}
}
