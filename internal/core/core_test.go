package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/update"
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

func addView(t *testing.T, e *Engine, src string) *ManagedView {
	t.Helper()
	mv, err := e.AddView(src, pattern.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func apply(t *testing.T, e *Engine, stmt string) *Report {
	t.Helper()
	rep, err := e.ApplyStatement(update.MustParse(stmt))
	if err != nil {
		t.Fatalf("ApplyStatement(%q): %v", stmt, err)
	}
	return rep
}

// TestInsertTermsChain reproduces Example 3.2: for v1 = //a//b//c the terms
// surviving Proposition 3.3 are RaRb∆c, Ra∆b∆c and ∆a∆b∆c.
func TestInsertTermsChain(t *testing.T) {
	p := pattern.MustParse(`//a{ID}//b{ID}//c{ID}`)
	terms := InsertTerms(p)
	if len(terms) != 3 {
		t.Fatalf("terms = %b", terms)
	}
	want := map[uint64]bool{0: true, 1: true, 1 | 1<<1: true}
	for _, m := range terms {
		if !want[m] {
			t.Fatalf("unexpected term R-mask %b", m)
		}
	}
}

// TestInsertTermsMatchSnowcaps checks Proposition 3.12: surviving non-empty
// R-masks are exactly the proper snowcaps.
func TestInsertTermsMatchSnowcaps(t *testing.T) {
	p := pattern.MustParse(`//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	terms := InsertTerms(p)
	snow := map[uint64]bool{}
	for m := uint64(1); m < p.FullMask(); m++ {
		if p.IsSnowcap(m) {
			snow[m] = true
		}
	}
	nonEmpty := 0
	for _, m := range terms {
		if m == 0 {
			continue
		}
		nonEmpty++
		if !snow[m] {
			t.Fatalf("term %b is not a snowcap", m)
		}
	}
	if nonEmpty != len(snow) {
		t.Fatalf("%d non-empty terms vs %d proper snowcaps", nonEmpty, len(snow))
	}
}

// patternDelta is p's ∆ input over the forest of roots, read from tables
// built for p's labels alone.
func patternDelta(d *xmltree.Document, p *pattern.Pattern, roots ...*xmltree.Node) algebra.Inputs {
	var ls update.Labels
	slots := labelSlots(&ls, p)
	var dt update.Delta
	dt.Fill(roots, &ls)
	return deltaInputs(nil, p, slots, dt, d)
}

// TestPruneByDeltaExample34 reproduces Example 3.4: inserting
// <a><b/><b/></a> leaves ∆c empty, so no term of //a//b//c survives.
func TestPruneByDeltaExample34(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b></a></r>`)
	p := pattern.MustParse(`//a{ID}//b{ID}//c{ID}`)
	forest, _ := xmltree.ParseForest(`<a><b/><b/></a>`)
	cp, err := d.ApplyInsert(d.Root, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	deltaIn := patternDelta(d, p, cp)
	got := pruneByDelta(nil, p, InsertTerms(p), deltaIn)
	if len(got) != 0 {
		t.Fatalf("survivors = %b", got)
	}
}

// TestPruneByInsertionPointsExample37 reproduces Example 3.7: inserting
// <b><c/></b> under an a node with no b ancestor kills RaRb∆c, leaving only
// Ra∆b∆c (∆a is empty so the all-∆ term dies via data pruning).
func TestPruneByInsertionPointsExample37(t *testing.T) {
	d := mustDoc(t, `<a><x/></a>`)
	p := pattern.MustParse(`//a{ID}//b{ID}//c{ID}`)
	forest, _ := xmltree.ParseForest(`<b><c/></b>`)
	cp, err := d.ApplyInsert(d.Root, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	deltaIn := patternDelta(d, p, cp)
	terms := pruneByDelta(nil, p, InsertTerms(p), deltaIn)
	terms = pruneByInsertionPoints(nil, p, terms, []*xmltree.Node{d.Root})
	if len(terms) != 1 || terms[0] != 1 {
		t.Fatalf("survivors = %b, want only Ra∆b∆c", terms)
	}
}

// TestInsertEndToEndExample31 walks Example 3.1/3.2: v1 = //a//b//c over a
// small document, insert <a><b/><b><c/></b></a>.
func TestInsertEndToEndExample31(t *testing.T) {
	d := mustDoc(t, `<r><a><b><c/></b></a></r>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}//b{ID}//c{ID}`)
	if mv.View.Len() != 1 {
		t.Fatalf("initial len %d", mv.View.Len())
	}
	rep := apply(t, e, `insert <a><b/><b><c/></b></a> into /r`)
	if rep.Targets != 1 {
		t.Fatalf("targets %d", rep.Targets)
	}
	// New tuples: (a_new, b2_new, c_new). The old a is not an ancestor of
	// the new c? It is: new subtree sits under r, old a is a sibling — no.
	if mv.View.Len() != 2 {
		for _, r := range mv.View.Rows() {
			t.Logf("row %v", r.ID(0))
		}
		t.Fatalf("len %d", mv.View.Len())
	}
	if !e.CheckView(mv) {
		t.Fatal("maintained view differs from recomputation")
	}
}

// TestDeleteEndToEndExample45 reproduces Example 4.5: the view
// //a[//c]//b over the Figure 12 document has 8 tuples; deleting /a/f/c
// leaves tuples 1, 2 and 4.
func TestDeleteEndToEndExample45(t *testing.T) {
	d := mustDoc(t, `<a><c><b>1</b><b>2</b></c><f><c><b>3</b></c><b>4</b></f></a>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}[//c{ID}]//b{ID}`)
	if mv.View.Len() != 8 {
		t.Fatalf("initial len %d", mv.View.Len())
	}
	apply(t, e, `delete /a/f/c`)
	if mv.View.Len() != 3 {
		t.Fatalf("len after delete %d", mv.View.Len())
	}
	if !e.CheckView(mv) {
		t.Fatal("maintained view differs from recomputation")
	}
}

// TestDerivationCountsExample48 follows Example 4.8: //a[//b] with two b
// nodes has one tuple with count 2; deleting //c//b halves the count;
// deleting //f//b removes the tuple.
func TestDerivationCountsExample48(t *testing.T) {
	d := mustDoc(t, `<a><c><b/></c><f><b/></f></a>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}[//b]`)
	rows := mv.View.Rows()
	if len(rows) != 1 || rows[0].Count != 2 {
		t.Fatalf("initial rows %+v", rows)
	}
	apply(t, e, `delete //c//b`)
	rows = mv.View.Rows()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after first delete %+v", rows)
	}
	apply(t, e, `delete //f//b`)
	if mv.View.Len() != 0 {
		t.Fatalf("after second delete %d", mv.View.Len())
	}
	if !e.CheckView(mv) {
		t.Fatal("mismatch vs recomputation")
	}
}

// TestEvenDeltaDeleteCounts exercises the case where the paper's parity
// pruning would miscount: sibling branches deleted by one statement.
func TestEvenDeltaDeleteCounts(t *testing.T) {
	// a has embeddings via (c1,b1),(c1,b2),(c2,b3); deleting /a/x (which
	// holds c1 with b1,b2) must leave count 1, not remove the row.
	d := mustDoc(t, `<a><x><c><b/><b/></c></x><y><c><b/></c></y></a>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}[//c//b]`)
	rows := mv.View.Rows()
	if len(rows) != 1 || rows[0].Count != 3 {
		t.Fatalf("initial rows %+v", rows)
	}
	apply(t, e, `delete /a/x`)
	rows = mv.View.Rows()
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after delete %+v", rows)
	}
	if !e.CheckView(mv) {
		t.Fatal("mismatch vs recomputation")
	}
}

// TestPIMTContentRefresh follows Example 3.14: an insertion that adds no
// view tuples can still modify stored content.
func TestPIMTContentRefresh(t *testing.T) {
	d := mustDoc(t, `<a><b><d><c>old</c></d></b></a>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}/b{ID}//c{ID,cont}`)
	before := mv.View.Rows()
	if len(before) != 1 || !strings.Contains(mv.Shape.Entry(before[0], 2).Cont, "old") {
		t.Fatalf("before %+v", before)
	}
	rep := apply(t, e, `insert <extra>some value</extra> into //d//c`)
	if rep.Views[0].RowsAdded != 0 {
		t.Fatalf("unexpected additions: %+v", rep.Views[0])
	}
	if rep.Views[0].RowsModified != 1 {
		t.Fatalf("modified %d", rep.Views[0].RowsModified)
	}
	after := mv.View.Rows()
	if cont := mv.Shape.Entry(after[0], 2).Cont; !strings.Contains(cont, "<extra>some value</extra>") {
		t.Fatalf("cont not refreshed: %q", cont)
	}
	if !e.CheckView(mv) {
		t.Fatal("mismatch vs recomputation")
	}
}

// TestPDMTContentRefresh: deleting inside a stored subtree refreshes cont
// and val on the surviving tuple.
func TestPDMTContentRefresh(t *testing.T) {
	d := mustDoc(t, `<a><b>keep<x>drop</x></b><c/></a>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}/b{ID,val,cont}`)
	apply(t, e, `delete //b/x`)
	rows := mv.View.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	en := mv.Shape.Entry(rows[0], 1)
	if en.Val != "keep" || strings.Contains(en.Cont, "drop") {
		t.Fatalf("entry not refreshed: %+v", en)
	}
	if !e.CheckView(mv) {
		t.Fatal("mismatch vs recomputation")
	}
}

// checkLattice holds every materialized snowcap of mv to a fresh evaluation
// of its sub-pattern.
func checkLattice(t *testing.T, e *Engine, mv *ManagedView, when string) {
	t.Helper()
	if err := mv.Lattice.Check(e.Store.Inputs(mv.Pattern)); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestLabelGatesKeepWhatTheyMust walks the edges of the two label gates
// that let a statement skip a view's O(view) scans (refreshAround,
// propagateDelete): the cases where the scan has work although the labels
// nearly say otherwise.
func TestLabelGatesKeepWhatTheyMust(t *testing.T) {
	// The insertion target is itself the cvn node: its own label, not only
	// its ancestors', must admit it.
	t.Run("insert under the val node itself", func(t *testing.T) {
		e := New(mustDoc(t, `<site><person><name>Ann</name></person><person><name>Bob</name></person></site>`))
		mv := addView(t, e, `//person{ID}/name{ID,val}`)
		rep := apply(t, e, `insert <suffix>ie</suffix> into /site/person[1]/name`)
		if rep.Views[0].RowsModified != 1 {
			t.Fatalf("modified %d rows, want 1", rep.Views[0].RowsModified)
		}
		if val := mv.Shape.Entry(mv.View.Rows()[0], 1).Val; val != "Annie" {
			t.Fatalf("val = %q, want %q", val, "Annie")
		}
		if !e.CheckView(mv) {
			t.Fatal("mismatch vs recomputation")
		}
	})

	// A wildcard cvn node has no label to look for: any element on the
	// target's path may be bound by it.
	t.Run("wildcard cont", func(t *testing.T) {
		e := New(mustDoc(t, `<a><b><c/></b><d/></a>`))
		mv := addView(t, e, `//a{ID}/*{ID,cont}`)
		if rep := apply(t, e, `insert <x>new</x> into //b/c`); rep.Views[0].RowsModified != 1 {
			t.Fatalf("insert modified %d rows, want 1", rep.Views[0].RowsModified)
		}
		if !e.CheckView(mv) {
			t.Fatal("mismatch vs recomputation after the insert")
		}
		if rep := apply(t, e, `delete //c/x`); rep.Views[0].RowsModified != 1 {
			t.Fatalf("delete modified %d rows, want 1", rep.Views[0].RowsModified)
		}
		if !e.CheckView(mv) {
			t.Fatal("mismatch vs recomputation after the delete")
		}
	})

	// The deleted forest holds a binding of a node the view does not store:
	// no row goes, but a derivation does, and under Snowcaps the snowcap
	// {a, b} must lose its tuple — or the next insert is joined with a b
	// that is gone.
	t.Run("delete of a non-stored binding", func(t *testing.T) {
		for _, policy := range []Policy{PolicySnowcaps, PolicyLeaves} {
			t.Run(policy.String(), func(t *testing.T) {
				deleteNonStoredBinding(t, New(mustDoc(t, `<r><a><b/><b/><c/></a></r>`), WithPolicy(policy)))
			})
		}
	})
}

func deleteNonStoredBinding(t *testing.T, e *Engine) {
	mv := addView(t, e, `//a{ID}[//b]//c{ID}`)
	if rows := mv.View.Rows(); len(rows) != 1 || rows[0].Count != 2 {
		t.Fatalf("before: %+v", rows)
	}
	rep := apply(t, e, `delete /r/a/b[1]`)
	if rep.Views[0].RowsRemoved != 0 {
		t.Fatalf("removed %d rows, want none", rep.Views[0].RowsRemoved)
	}
	if rows := mv.View.Rows(); len(rows) != 1 || rows[0].Count != 1 {
		t.Fatalf("after the delete: %+v, want one row of count 1", rows)
	}
	checkLattice(t, e, mv, "after the delete")
	apply(t, e, `insert <c/> into /r/a`)
	if !e.CheckView(mv) {
		t.Fatalf("mismatch vs recomputation after the insert: %s", dumpRows(mv.Shape, mv.View.Rows()))
	}
	checkLattice(t, e, mv, "after the insert")
}

// randomXML builds a deterministic random document over a small alphabet.
func randomXML(rng *rand.Rand, fanout, depth int) string {
	labels := []string{"a", "b", "c", "d", "e"}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		var sb strings.Builder
		sb.WriteString("<" + l + ">")
		if rng.Intn(4) == 0 {
			sb.WriteString([]string{"5", "7", "zz"}[rng.Intn(3)])
		}
		if lvl < depth {
			for i := 0; i < rng.Intn(fanout+1); i++ {
				sb.WriteString(build(lvl + 1))
			}
		}
		sb.WriteString("</" + l + ">")
		return sb.String()
	}
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < fanout; i++ {
		sb.WriteString(build(1))
	}
	sb.WriteString("</root>")
	return sb.String()
}

func randomStatement(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d", "e"}
	l := func() string { return labels[rng.Intn(len(labels))] }
	axis := func() string {
		if rng.Intn(2) == 0 {
			return "/"
		}
		return "//"
	}
	path := "/root"
	for i := 0; i < 1+rng.Intn(2); i++ {
		path += axis() + l()
	}
	if rng.Intn(2) == 0 {
		return "delete " + path
	}
	frag := fmt.Sprintf("<%s><%s>5</%s><%s/></%s>", l(), l(), "%[2]s", l(), "%[1]s")
	// Build a simple well-formed fragment by hand instead of Sprintf games.
	x, y, z := l(), l(), l()
	frag = fmt.Sprintf("<%s><%s>5</%s><%s/></%s>", x, y, y, z, x)
	return "insert " + frag + " into " + path
}

// TestMaintenanceEqualsRecomputation is the central property: across random
// documents, views and update statements, incrementally maintained views
// (rows, val/cont, derivation counts) match from-scratch recomputation.
func TestMaintenanceEqualsRecomputation(t *testing.T) {
	views := []string{
		`//a{ID}//b{ID}`,
		`//a{ID}[//b{ID}//c{ID}]//d{ID}`,
		`//a{ID}[//b]`,
		`//root{ID}/a{ID,val}`,
		`//a{ID}[val="5"]//b{ID}`,
		`//a{ID}//b{ID,cont}`,
		`//a{ID}[//c{ID}]//b{ID}`,
		`//*{ID}//b{ID}`,
	}
	for _, policy := range []Policy{PolicySnowcaps, PolicyLeaves} {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 25; trial++ {
			d := mustDoc(t, randomXML(rng, 3, 4))
			e := New(d, WithPolicy(policy))
			var mvs []*ManagedView
			for _, src := range views {
				mvs = append(mvs, addView(t, e, src))
			}
			for step := 0; step < 6; step++ {
				stmt := randomStatement(rng)
				st, err := update.Parse(stmt)
				if err != nil {
					t.Fatalf("parse %q: %v", stmt, err)
				}
				if _, err := e.ApplyStatement(st); err != nil {
					t.Fatalf("%s policy trial %d step %d (%s): %v", policy, trial, step, stmt, err)
				}
				for vi, mv := range mvs {
					if !e.CheckView(mv) {
						t.Fatalf("%s policy trial %d step %d view %s diverged after %q\n got: %s\nwant: %s",
							policy, trial, step, views[vi], stmt,
							dumpRows(mv.Shape, mv.View.Rows()), dumpRows(mv.Shape, e.RecomputeView(mv)))
					}
				}
			}
		}
	}
}

func dumpRows(shape *algebra.Shape, rows []algebra.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "[c=%d", r.Count)
		for i := range shape.Width() {
			fmt.Fprintf(&sb, " %v", r.ID(i))
		}
		sb.WriteString("] ")
	}
	return sb.String()
}

// TestLatticeStaysConsistent: after updates, materialized snowcap blocks
// equal fresh sub-pattern evaluation.
func TestLatticeStaysConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := mustDoc(t, randomXML(rng, 3, 4))
	e := New(d, WithPolicy(PolicySnowcaps))
	mv := addView(t, e, `//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	for step := 0; step < 12; step++ {
		st, err := update.Parse(randomStatement(rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyStatement(st); err != nil {
			t.Fatal(err)
		}
		checkLattice(t, e, mv, fmt.Sprintf("step %d", step))
	}
}

// TestLatticeMasksEmptyFallsBackToLeaves: a leaves lattice materializes no
// mask and computes every block on the fly.
func TestLatticeMasksEmptyFallsBackToLeaves(t *testing.T) {
	d := mustDoc(t, `<a><b/></a>`)
	l := NewLattice(pattern.MustParse(`//a{ID}//b{ID}`), PolicyLeaves, store.New(d), nil)
	if l.Policy != PolicyLeaves || len(l.Materialized()) != 0 {
		t.Fatalf("policy %v, %d materialized", l.Policy, len(l.Materialized()))
	}
	if b := l.Block(1); len(b.Cols) != 1 {
		t.Fatalf("block cols %v", b.Cols)
	}
}

// TestLatticeOracleComparesContent: Lattice.Check, the oracle difftest and
// checkLattice hold every snowcap to, compares content, not cardinality. A
// fresh lattice passes it; one whose {a, b} snowcap has a tuple's count
// doubled, a binding moved to another node — as many tuples, the same
// counts — or a tuple dropped does not.
func TestLatticeOracleComparesContent(t *testing.T) {
	for _, c := range []struct {
		what    string
		corrupt func(m *store.Mat, ab [3][]dewey.ID)
	}{
		{"a count doubled", func(m *store.Mat, ab [3][]dewey.ID) {
			m.AddBlock(algebra.Block{Cols: []int{0, 1}, IDs: ab[0], Counts: []int{1}})
		}},
		{"a binding moved", func(m *store.Mat, ab [3][]dewey.ID) {
			m.RemoveIf(coverOf(ab[0][1:]).ContainsAny)
			m.AddBlock(algebra.Block{Cols: []int{0, 1}, IDs: []dewey.ID{ab[2][0], ab[0][1]}, Counts: []int{1}})
		}},
		{"a tuple dropped", func(m *store.Mat, ab [3][]dewey.ID) {
			m.RemoveIf(coverOf(ab[2][1:]).ContainsAny)
		}},
	} {
		e := New(mustDoc(t, `<r><a><b><c/></b><b/></a><a><b><c/></b></a></r>`), WithPolicy(PolicySnowcaps))
		mv := addView(t, e, `//a{ID}//b{ID}//c{ID}`)
		if err := mv.Lattice.Check(e.Store.Inputs(mv.Pattern)); err != nil {
			t.Fatalf("a fresh lattice: %v", err)
		}
		m := mv.Lattice.mats[0b11]
		blk := m.Block()
		if blk.Len() != 3 {
			t.Fatalf("the {a, b} snowcap holds %d tuples, want 3", blk.Len())
		}
		var ab [3][]dewey.ID
		for i := range ab {
			ab[i] = slices.Clone(blk.Tuple(i))
		}
		c.corrupt(m, ab)
		if err := mv.Lattice.Check(e.Store.Inputs(mv.Pattern)); err == nil {
			t.Errorf("%s: the oracle passed the lattice", c.what)
		} else {
			t.Logf("%s: %v", c.what, err)
		}
	}
}

// TestIVMAEquivalence: the node-at-a-time competitor produces the same view
// keys and counts as bulk maintenance for ID-only views.
func TestIVMAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		src := randomXML(rng, 3, 3)
		d1 := mustDoc(t, src)
		d2 := mustDoc(t, src)
		e1 := New(d1)
		e2 := New(d2)
		mv1 := addView(t, e1, `//a{ID}//b{ID}`)
		mv2 := addView(t, e2, `//a{ID}//b{ID}`)
		iv := NewIVMA(e2)
		for step := 0; step < 4; step++ {
			stmt := randomStatement(rng)
			st1 := update.MustParse(stmt)
			st2 := update.MustParse(stmt)
			if _, err := e1.ApplyStatement(st1); err != nil {
				t.Fatal(err)
			}
			if _, err := iv.ApplyStatement(st2); err != nil {
				t.Fatal(err)
			}
			r1, r2 := mv1.View.Rows(), mv2.View.Rows()
			if len(r1) != len(r2) {
				t.Fatalf("trial %d step %d (%s): bulk %d vs ivma %d rows", trial, step, stmt, len(r1), len(r2))
			}
			for i := range r1 {
				if mv1.Shape.Compare(r1[i], r2[i]) != 0 || r1[i].Count != r2[i].Count {
					t.Fatalf("trial %d step %d row %d differs", trial, step, i)
				}
			}
		}
	}
}

// TestFullRecomputeBaseline: the baseline produces the same rows as
// incremental maintenance.
func TestFullRecomputeBaseline(t *testing.T) {
	src := `<root><a><b>5</b></a><a><c/></a></root>`
	d1, d2 := mustDoc(t, src), mustDoc(t, src)
	e1, e2 := New(d1), New(d2)
	mv1 := addView(t, e1, `//a{ID}//b{ID,val}`)
	mv2 := addView(t, e2, `//a{ID}//b{ID,val}`)
	stmt := `insert <b>9</b> into /root/a`
	apply(t, e1, stmt)
	if _, err := e2.FullRecompute(update.MustParse(stmt)); err != nil {
		t.Fatal(err)
	}
	if !mv1.View.EqualRows(mv2.View.Rows()) {
		t.Fatal("baseline and incremental disagree")
	}
}

// TestFullRecomputeReplace: the baseline accepts replace statements.
func TestFullRecomputeReplace(t *testing.T) {
	src := `<root><a><b>5</b></a></root>`
	d1, d2 := mustDoc(t, src), mustDoc(t, src)
	e1, e2 := New(d1), New(d2)
	mv1 := addView(t, e1, `//a{ID}//b{ID,val}`)
	mv2 := addView(t, e2, `//a{ID}//b{ID,val}`)
	stmt := `replace /root/a/b with <b>9</b><b>11</b>`
	apply(t, e1, stmt)
	if _, err := e2.FullRecompute(update.MustParse(stmt)); err != nil {
		t.Fatal(err)
	}
	if !mv1.View.EqualRows(mv2.View.Rows()) {
		t.Fatal("baseline and incremental disagree on replace")
	}
}

// TestPruningAblation: disabling data/ID pruning changes work done, never
// results.
func TestPruningAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randomXML(rng, 3, 4)
	stmts := []string{
		`insert <b><c>5</c></b> into /root/a`,
		`delete /root//b`,
		`insert <a><b/><d/></a> into /root`,
	}
	base := runStream(t, src, stmts)
	noPrune := runStream(t, src, stmts, WithoutDataPruning(), WithoutIDPruning())
	if base != noPrune {
		t.Fatalf("pruning changed results:\n%s\nvs\n%s", base, noPrune)
	}
}

func runStream(t *testing.T, src string, stmts []string, opts ...Option) string {
	t.Helper()
	d := mustDoc(t, src)
	e := New(d, opts...)
	mv := addView(t, e, `//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	for _, s := range stmts {
		st, err := update.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyStatement(st); err != nil {
			t.Fatal(err)
		}
		if !e.CheckView(mv) {
			t.Fatalf("diverged after %q", s)
		}
	}
	return dumpRows(mv.Shape, mv.View.Rows())
}

// TestReportMetadata sanity-checks term accounting in reports.
func TestReportMetadata(t *testing.T) {
	d := mustDoc(t, `<root><a><b><c/></b></a></root>`)
	e := New(d)
	addView(t, e, `//a{ID}//b{ID}//c{ID}`)
	rep := apply(t, e, `insert <c/> into /root/a/b`)
	vr := rep.Views[0]
	if vr.TermsTotal != 3 {
		t.Fatalf("TermsTotal %d", vr.TermsTotal)
	}
	if vr.TermsSurvived != 1 { // only RaRb∆c: ∆a and ∆b empty
		t.Fatalf("TermsSurvived %d", vr.TermsSurvived)
	}
	if vr.RowsAdded != 1 {
		t.Fatalf("RowsAdded %d", vr.RowsAdded)
	}
	if rep.Timings().Total() <= 0 {
		t.Fatal("timings not recorded")
	}
}

// Materialized returns the materialized masks in ascending size order.
func (l *Lattice) Materialized() []uint64 { return l.chain }

// Block returns the relation for an upward-closed node set: its
// materialized snowcap, or the sub-pattern evaluated over the store's
// whole relations as they are now.
func (l *Lattice) Block(mask uint64) algebra.Block {
	if m := l.mats[mask]; m != nil {
		return m.Block()
	}
	return algebra.EvalSubPattern(l.Pattern, mask, l.store.Inputs(l.Pattern), l.join)
}

// coverOf builds the cover of roots, as a statement's scratch does.
func coverOf(roots []dewey.ID) *dewey.Cover {
	c := new(dewey.Cover)
	c.Reset(roots)
	return c
}
