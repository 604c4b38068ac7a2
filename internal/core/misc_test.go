package core

import (
	"math/rand"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/update"
)

// TestRootAnchoredDelta: a /-anchored pattern root can never bind an
// inserted node (insertions only add below existing nodes), so ∆_root is
// always empty and all terms containing it are pruned.
func TestRootAnchoredDelta(t *testing.T) {
	d := mustDoc(t, `<site><people/></site>`)
	e := New(d)
	mv := addView(t, e, `/site{ID}/people{ID}//person{ID}`)
	// Insert a whole site-labeled subtree somewhere: its site node must
	// not be mistaken for a document root.
	rep := apply(t, e, `insert <site><people><person/></people></site> into /site/people`)
	if !e.CheckView(mv) {
		t.Fatal("view diverged")
	}
	// The nested site/people/person chain is NOT anchored at the document
	// root, so the view gains only the person under the original people.
	if mv.View.Len() != 1 {
		t.Fatalf("rows %d", mv.View.Len())
	}
	_ = rep
}

// TestDescendantRootPatternSeesNestedMatches contrasts the anchored case.
func TestDescendantRootPatternSeesNestedMatches(t *testing.T) {
	d := mustDoc(t, `<site><people/></site>`)
	e := New(d)
	mv := addView(t, e, `//site{ID}/people{ID}//person{ID}`)
	apply(t, e, `insert <site><people><person/></people></site> into /site/people`)
	if !e.CheckView(mv) {
		t.Fatal("view diverged")
	}
	if mv.View.Len() != 2 {
		t.Fatalf("rows %d", mv.View.Len())
	}
}

func TestTimingsArithmetic(t *testing.T) {
	a := Timings{FindTargets: 1, ComputeDelta: 2, GetExpression: 3, ExecuteUpdate: 4, UpdateLattice: 5}
	b := a
	a.Add(b)
	if a.Total() != 2*15 {
		t.Fatalf("total %v", a.Total())
	}
	if b.Total() != 15*time.Nanosecond {
		t.Fatalf("b total %v", b.Total())
	}
}

func TestReportTimingsCountsFindOnce(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := New(d)
	addView(t, e, `//a{ID}//b{ID}`)
	addView(t, e, `//a{ID}`)
	rep := apply(t, e, `insert <b/> into /root/a`)
	if len(rep.Views) != 2 {
		t.Fatalf("views %d", len(rep.Views))
	}
	total := rep.Timings()
	if total.FindTargets != rep.FindTargets {
		t.Fatal("FindTargets double counted")
	}
	// Per-view breakdowns never carry find_targets: the cost is paid once
	// per statement and lives on the Report.
	for i := range rep.Views {
		if got := rep.Views[i].Phases.FindTargets; got != 0 {
			t.Fatalf("view %d carries FindTargets %v", i, got)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	d := mustDoc(t, `<root><a/></root>`)
	e := New(d)
	if _, err := e.AddView("bad", pattern.MustParse(`//a//b`)); err == nil {
		t.Fatal("store-less view accepted")
	}
	addView(t, e, `//a{ID}`)
	if _, err := e.ApplyStatement(update.MustParse(`delete /root`)); err == nil {
		t.Fatal("root deletion accepted")
	}
	if _, err := e.ApplyStatement(update.MustParse(`insert <x/> into /root/a/text()`)); err == nil {
		// Inserting under text nodes yields zero element targets — not an
		// error, just a no-op.
		t.Log("insert into text() treated as no-op")
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicySnowcaps.String() != "snowcaps" || PolicyLeaves.String() != "leaves" {
		t.Fatal("policy names wrong")
	}
}

// TestMultiViewSharedStatement: several views over the same document all
// stay exact under one statement stream.
func TestMultiViewSharedStatement(t *testing.T) {
	d := mustDoc(t, `<root><a><b>5</b><c/></a><a><b>7</b></a></root>`)
	e := New(d)
	var mvs []*ManagedView
	for _, src := range []string{
		`//a{ID}//b{ID,val}`, `//a{ID}[//c]`, `//root{ID}/a{ID}`, `//b{ID}[val="5"]`,
	} {
		mvs = append(mvs, addView(t, e, src))
	}
	for _, stmt := range []string{
		`insert <b>5</b> into /root/a`,
		`delete //a/c`,
		`insert <a><c/><b>9</b></a> into /root`,
		`delete //b[val="7"]`,
	} {
		apply(t, e, stmt)
		for _, mv := range mvs {
			if !e.CheckView(mv) {
				t.Fatalf("view %s diverged after %q", mv.Name, stmt)
			}
		}
	}
}

// TestWordLeafPatterns: pattern leaves from the word alphabet A_w match
// words inside PCDATA and maintain correctly (Section 2.2's P dialect).
func TestWordLeafPatterns(t *testing.T) {
	d := mustDoc(t, `<root><a>hello world</a><a>goodbye world</a><a><b>hello there</b></a></root>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}//~hello{ID}`)
	if mv.View.Len() != 2 {
		t.Fatalf("initial rows %d", mv.View.Len())
	}
	apply(t, e, `insert <b>hello again</b> into /root/a`)
	if !e.CheckView(mv) {
		t.Fatal("word-leaf view diverged after insert")
	}
	if mv.View.Len() != 5 {
		t.Fatalf("after insert rows %d", mv.View.Len())
	}
	// delete //a/b removes the original b and all three inserted ones,
	// leaving only the "hello world" text under the first a.
	apply(t, e, `delete //a/b`)
	if !e.CheckView(mv) {
		t.Fatal("word-leaf view diverged after delete")
	}
	if mv.View.Len() != 1 {
		t.Fatalf("after delete rows %d", mv.View.Len())
	}
}

// TestOptionsCombined exercises the leaves policy, both pruning ablations
// and an overriding join together under random streams.
func TestOptionsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 6; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d, WithPolicy(PolicyLeaves), WithoutDataPruning(), WithoutIDPruning(), WithJoin(algebra.NestedLoopStructuralJoin))
		var mvs []*ManagedView
		for _, src := range []string{
			`//a{ID}//b{ID}`, `//a{ID}//b{ID,val}`,
			`//a{ID}[//b{ID}//c{ID}]//d{ID}`, `//root{ID}/a{ID}`,
		} {
			mvs = append(mvs, addView(t, e, src))
		}
		for step := 0; step < 5; step++ {
			stmt := randomStatement(rng)
			apply(t, e, stmt)
			for _, mv := range mvs {
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d (%s): combined-options view %s diverged", trial, step, stmt, mv.Name)
				}
			}
		}
	}
}

// TestReplaceStatement: replace propagates as delete+insert and stays exact.
func TestReplaceStatement(t *testing.T) {
	d := mustDoc(t, `<root><a><b>old</b></a><a><b>keep</b><c/></a></root>`)
	e := New(d)
	mv := addView(t, e, `//a{ID}//b{ID,val}`)
	rep := apply(t, e, `replace //a/b with <b>new</b>`)
	if rep.Targets != 2 {
		t.Fatalf("targets %d", rep.Targets)
	}
	if !e.CheckView(mv) {
		t.Fatal("replace diverged from recomputation")
	}
	vals := map[string]int{}
	for _, r := range mv.View.Rows() {
		vals[mv.Shape.Entry(r, 1).Val]++
	}
	if vals["new"] != 2 || vals["old"] != 0 || vals["keep"] != 0 {
		t.Fatalf("vals %v", vals)
	}
}

// TestReplaceRandomStreams mixes replace into the central property.
func TestReplaceRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d)
		mv := addView(t, e, `//a{ID}[//b{ID}//c{ID}]//d{ID}`)
		mv2 := addView(t, e, `//a{ID}//b{ID,val}`)
		for step := 0; step < 6; step++ {
			stmt := randomStatement(rng)
			if rng.Intn(3) == 0 {
				l := []string{"a", "b", "c"}[rng.Intn(3)]
				stmt = "replace /root//" + l + " with <" + l + ">5<b/></" + l + ">"
			}
			st, err := update.Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ApplyStatement(st); err != nil {
				t.Fatal(err)
			}
			if !e.CheckView(mv) || !e.CheckView(mv2) {
				t.Fatalf("trial %d step %d: diverged after %q", trial, step, stmt)
			}
		}
	}
}
