package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xivm/internal/update"
)

func TestLazyEmptyFlush(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := NewEngine(d, Options{})
	addView(t, e, `//a{ID}//b{ID}`)
	lz := NewLazy(e)
	if lz.Pending() != 0 {
		t.Fatal("fresh batch not empty")
	}
	if _, err := lz.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestLazySingleStatementMatchesEager(t *testing.T) {
	src := `<root><a><b>5</b></a><a><c/></a></root>`
	for _, stmt := range []string{
		`insert <b><c/></b> into /root/a`,
		`delete /root/a/b`,
	} {
		d1, d2 := mustDoc(t, src), mustDoc(t, src)
		e1, e2 := NewEngine(d1, Options{}), NewEngine(d2, Options{})
		mv1 := addView(t, e1, `//a{ID}//b{ID,val}`)
		mv2 := addView(t, e2, `//a{ID}//b{ID,val}`)
		apply(t, e1, stmt)
		lz := NewLazy(e2)
		if err := lz.Apply(update.MustParse(stmt)); err != nil {
			t.Fatal(err)
		}
		if lz.Pending() != 1 {
			t.Fatal("pending count wrong")
		}
		if _, err := lz.Flush(); err != nil {
			t.Fatal(err)
		}
		if !mv2.View.EqualRows(mv1.View.Rows()) {
			t.Fatalf("lazy differs from eager after %q", stmt)
		}
	}
}

// TestLazyNetChurn: a subtree inserted and deleted within one batch leaves
// the view untouched at flush time.
func TestLazyNetChurn(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := NewEngine(d, Options{})
	mv := addView(t, e, `//a{ID}[//b]`)
	before := mv.View.Rows()
	lz := NewLazy(e)
	if err := lz.Apply(update.MustParse(`insert <b><b/></b> into /root/a`)); err != nil {
		t.Fatal(err)
	}
	// Delete exactly the inserted subtree: /root/a has two b children now;
	// deleting //a/b/b removes the nested inserted b... delete the whole
	// inserted tree via its structure (b with a b child).
	if err := lz.Apply(update.MustParse(`delete /root/a/b[b]`)); err != nil {
		t.Fatal(err)
	}
	if _, err := lz.Flush(); err != nil {
		t.Fatal(err)
	}
	rows := mv.View.Rows()
	if len(rows) != len(before) || rows[0].Count != before[0].Count {
		t.Fatalf("net-zero churn changed the view: %+v vs %+v", rows, before)
	}
	if !e.CheckView(mv) {
		t.Fatal("diverged from recomputation")
	}
}

// TestLazyMatchesEagerRandomStreams is the deferred-mode counterpart of the
// central property: batches of random statements flushed at random points
// leave the views identical to eager maintenance and to recomputation.
func TestLazyMatchesEagerRandomStreams(t *testing.T) {
	views := []string{
		`//a{ID}//b{ID}`,
		`//a{ID}[//b{ID}//c{ID}]//d{ID}`,
		`//a{ID}[//b]`,
		`//root{ID}/a{ID,val}`,
		`//a{ID}//b{ID,cont}`,
	}
	for _, policy := range []Policy{PolicySnowcaps, PolicyLeaves} {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 15; trial++ {
			src := randomXML(rng, 3, 4)
			d1, d2 := mustDoc(t, src), mustDoc(t, src)
			e1 := NewEngine(d1, Options{Policy: policy})
			e2 := NewEngine(d2, Options{Policy: policy})
			var m1, m2 []*ManagedView
			for _, v := range views {
				m1 = append(m1, addView(t, e1, v))
				m2 = append(m2, addView(t, e2, v))
			}
			lz := NewLazy(e2)
			for step := 0; step < 8; step++ {
				stmt := randomStatement(rng)
				st1, st2 := update.MustParse(stmt), update.MustParse(stmt)
				if _, err := e1.ApplyStatement(st1); err != nil {
					t.Fatal(err)
				}
				if err := lz.Apply(st2); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(3) == 0 {
					if _, err := lz.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := lz.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range views {
				if !m2[i].View.EqualRows(m1[i].View.Rows()) {
					t.Fatalf("%v policy trial %d view %s: lazy %s\n eager %s",
						policy, trial, views[i],
						dumpRows(m2[i].View.Rows()), dumpRows(m1[i].View.Rows()))
				}
				if !e2.CheckView(m2[i]) {
					t.Fatalf("%v policy trial %d view %s: lazy diverged from recomputation", policy, trial, views[i])
				}
			}
		}
	}
}

// TestLazyReplaceMatchesEager: replace statements in deferred mode expand
// into the same delete+insert stages eager mode applies, and flush to the
// same view state.
func TestLazyReplaceMatchesEager(t *testing.T) {
	src := `<root><a><b>5</b><b>7</b></a><a><c>x</c></a></root>`
	views := []string{
		`//a{ID}//b{ID,val}`,
		`//root{ID,cont}/a{ID}`,
		`//a{ID}[//b]`,
	}
	for _, stmts := range [][]string{
		{`replace /root/a/b with <b>9</b>`},
		{`replace //c with <b>new</b><d/>`, `insert <c/> into /root/a`},
		{`delete /root/a/b`, `replace //a/c with <c>y</c>`},
	} {
		d1, d2 := mustDoc(t, src), mustDoc(t, src)
		e1, e2 := NewEngine(d1, Options{}), NewEngine(d2, Options{})
		var m1, m2 []*ManagedView
		for _, v := range views {
			m1 = append(m1, addView(t, e1, v))
			m2 = append(m2, addView(t, e2, v))
		}
		lz := NewLazy(e2)
		for _, stmt := range stmts {
			apply(t, e1, stmt)
			if err := lz.Apply(update.MustParse(stmt)); err != nil {
				t.Fatalf("lazy Apply(%q): %v", stmt, err)
			}
		}
		if _, err := lz.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := range views {
			if !m2[i].View.EqualRows(m1[i].View.Rows()) {
				t.Fatalf("view %s after %v: lazy %s\n eager %s", views[i], stmts,
					dumpRows(m2[i].View.Rows()), dumpRows(m1[i].View.Rows()))
			}
			if !e2.CheckView(m2[i]) {
				t.Fatalf("view %s after %v: lazy diverged from recomputation", views[i], stmts)
			}
		}
	}
}

// TestLazyRootLevelDelete: deleting direct children of the document root in
// deferred mode must refresh stored val/cont of the root itself (the touch
// point is the root's ID — the deleted nodes' parent).
func TestLazyRootLevelDelete(t *testing.T) {
	d := mustDoc(t, `<root><a>x</a><b/><a>y</a></root>`)
	e := NewEngine(d, Options{})
	mv := addView(t, e, `//root{ID,val,cont}`)
	lz := NewLazy(e)
	if err := lz.Apply(update.MustParse(`delete /root/a`)); err != nil {
		t.Fatal(err)
	}
	if _, err := lz.Flush(); err != nil {
		t.Fatal(err)
	}
	rows := mv.View.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows %d", len(rows))
	}
	en := rows[0].Entries[0]
	if en.Val != "" || strings.Contains(en.Cont, "<a>") {
		t.Fatalf("root val/cont not refreshed after root-level delete: val=%q cont=%q", en.Val, en.Cont)
	}
	if !e.CheckView(mv) {
		t.Fatal("diverged from recomputation")
	}
}

// TestLazyReplaceInsertedChurn: a subtree inserted and then replaced inside
// one batch composes via the net-effect flush.
func TestLazyReplaceInsertedChurn(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := NewEngine(d, Options{})
	mv := addView(t, e, `//a{ID}[//b]`)
	lz := NewLazy(e)
	for _, stmt := range []string{
		`insert <c><b/></c> into /root/a`,
		`replace /root/a/c with <d/>`,
	} {
		if err := lz.Apply(update.MustParse(stmt)); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
	}
	if _, err := lz.Flush(); err != nil {
		t.Fatal(err)
	}
	if !e.CheckView(mv) {
		t.Fatal("diverged from recomputation")
	}
}

// TestFullRecomputeReplace: the baseline accepts replace statements.
func TestFullRecomputeReplace(t *testing.T) {
	src := `<root><a><b>5</b></a></root>`
	d1, d2 := mustDoc(t, src), mustDoc(t, src)
	e1, e2 := NewEngine(d1, Options{}), NewEngine(d2, Options{})
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

// TestLazyLatticeConsistent: after flushes, materialized snowcaps match
// fresh evaluation.
func TestLazyLatticeConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := mustDoc(t, randomXML(rng, 3, 4))
	e := NewEngine(d, Options{Policy: PolicySnowcaps})
	mv := addView(t, e, `//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	lz := NewLazy(e)
	for step := 0; step < 10; step++ {
		if err := lz.Apply(update.MustParse(randomStatement(rng))); err != nil {
			t.Fatal(err)
		}
		if step%3 == 2 {
			if _, err := lz.Flush(); err != nil {
				t.Fatal(err)
			}
			checkLattice(t, e, mv, fmt.Sprintf("step %d", step))
		}
	}
}
