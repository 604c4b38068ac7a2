package core

import (
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// The tests below run on a published document, where a mutation copies the
// spine it touches and a pointer taken before it goes stale. Each fails
// without one of xmltree's rules (image.go): mutators go by ID (1), and the
// store is re-pointed at the copies before propagation reads through it (2).

func publishedEngine(t *testing.T, src string, policy Policy, views ...string) (*Engine, []*ManagedView) {
	t.Helper()
	e := New(mustDoc(t, src), WithMetrics(obs.New()), WithPolicy(policy))
	var mvs []*ManagedView
	for _, v := range views {
		mvs = append(mvs, addView(t, e, v))
	}
	e.Snapshot()
	return e, mvs
}

func checkViews(t *testing.T, e *Engine, when string) {
	t.Helper()
	for _, mv := range e.Views {
		if !e.CheckView(mv) {
			t.Errorf("%s: view %s differs from recomputation", when, mv.Name)
		}
	}
}

// TestStaleTargetsOnPublishedDocument is rule 1 at the engine: every target
// of a PUL, and of every unit of a translated batch, was resolved before the
// first mutation ran. (pulopt.PlanBatch rejects an insertion into a node the
// batch deletes, so the units are built by hand.)
func TestStaleTargetsOnPublishedDocument(t *testing.T) {
	const src = `<r><a><x><n/></x><n/></a><a><x/></a></r>`
	forest, err := xmltree.ParseForest(`<n/>`)
	if err != nil {
		t.Fatal(err)
	}
	// //a{ID}//n stores only the a: a deleted n shows as a derivation count,
	// which ∆− must carry or the count stays too high.
	e, mvs := publishedEngine(t, src, PolicySnowcaps, `//a{ID}//n`, `//x{ID}//n{ID}`, `//a{ID,cont}`)
	x := e.Doc.Root.ElementChildren()[0].ElementChildren()[0]

	// One PUL, two insertions under one target: the second finds the copy
	// the first made.
	twice := &update.PUL{Kind: update.Insert, Inserts: []update.PendingInsert{
		{Target: x, Trees: forest}, {Target: x, Trees: forest},
	}}
	if _, err := e.ApplyPUL(twice); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Doc.String(), `<r><a><x><n/><n/><n/></x><n/></a><a><x/></a></r>`; got != want {
		t.Fatalf("after two insertions under one target: %s, want %s", got, want)
	}
	checkViews(t, e, "two insertions under one target")
	e.Snapshot()

	// Unit 1 inserts into x, unit 2 deletes x — through the pointer taken
	// before unit 1 replaced x by a copy.
	x = e.Doc.Root.ElementChildren()[0].ElementChildren()[0]
	units := []BatchPUL{
		{PUL: &update.PUL{Kind: update.Insert, Inserts: []update.PendingInsert{{Target: x, Trees: forest}}}, Statements: 1},
		{PUL: &update.PUL{Kind: update.Delete, Deletes: []*xmltree.Node{x}}, Statements: 1},
	}
	rep, applied, err := e.ApplyBatch(units)
	if err != nil || applied != 2 {
		t.Fatalf("batch: %v, %d statements applied", err, applied)
	}
	if got, want := e.Doc.String(), `<r><a><n/></a><a><x/></a></r>`; got != want {
		t.Fatalf("after the batch: %s, want %s", got, want)
	}
	checkViews(t, e, "insert into x, then delete x")
	if rows := mvs[0].View.Rows(); len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("//a//n after the batch: %+v, want the first a once", rows)
	}
	if rep.Views[1].RowsRemoved != 4 { // x's three n, and the one unit 1 added
		t.Errorf("//x//n lost %d rows, want 4", rep.Views[1].RowsRemoved)
	}
}

// TestInsertUnderPublishedSpineRefreshesCont is rule 2: a view that stores
// cont on a spine node. Insert propagation reads relation membership as it
// was before the update and content as it is after; on a published document
// the content is in the spine's copy, which the store must already point at
// when the new row is projected.
func TestInsertUnderPublishedSpineRefreshesCont(t *testing.T) {
	const src = `<site><open_auctions><open_auction id="o1"><bidder><increase>1</increase></bidder></open_auction><open_auction id="o2"/></open_auctions></site>`
	e, mvs := publishedEngine(t, src, PolicySnowcaps, `//open_auction{ID,cont}//bidder{ID}`)
	apply(t, e, `insert <bidder><increase>7</increase></bidder> into /site/open_auctions/open_auction[@id="o2"]`)
	apply(t, e, `insert <bidder><increase>9</increase></bidder> into /site/open_auctions/open_auction[@id="o1"]`)
	checkViews(t, e, "bidders inserted")
	rows := mvs[0].View.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		auction := mvs[0].Shape.Entry(r, 0)
		want := "<increase>7</increase>"
		if strings.Contains(auction.Cont, `id="o1"`) {
			want = "<increase>9</increase>"
		}
		if !strings.Contains(auction.Cont, want) {
			t.Errorf("row for bidder %v: stored cont %s lacks the bidder inserted under it", r.ID(1), auction.Cont)
		}
	}
	for _, l := range []string{"site", "open_auctions", "open_auction"} {
		for _, it := range e.Store.Items(l) {
			if it.Node != e.Doc.NodeByID(it.ID) {
				t.Errorf("R_%s still points at the node a copy replaced", l)
			}
		}
	}
}

// TestInsertWindowHidesTheInsertion pins what an insertion propagates
// against: under PolicyLeaves every R-side is read from the canonical
// relations mid-propagation, and must show the membership before the
// insertion — the inserted bidder absent — with the content after it: the
// open_auction the bidder went under, a copy on this published document,
// reads with the bidder in it. Once the statement has landed the relations
// are the document's again.
func TestInsertWindowHidesTheInsertion(t *testing.T) {
	const src = `<site><open_auctions><open_auction id="o1"><bidder><increase>1</increase></bidder></open_auction><open_auction id="o2"/></open_auctions></site>`
	var e *Engine
	var during [][]algebra.Item // R_bidder and R_open_auction as the view's terms read them
	tracer := obs.TracerFunc(func(name string) func() {
		if strings.HasSuffix(name, "/"+obs.PhaseExecuteUpdate) && during == nil {
			during = [][]algebra.Item{e.Store.Items("bidder"), e.Store.Items("open_auction")}
		}
		return func() {}
	})
	e = New(mustDoc(t, src), WithMetrics(obs.New()), WithPolicy(PolicyLeaves), WithTracer(tracer))
	mv := addView(t, e, `//open_auction{ID,cont}//bidder{ID}`)
	e.Snapshot()
	apply(t, e, `insert <bidder><increase>7</increase></bidder> into /site/open_auctions/open_auction[@id="o2"]`)

	if during == nil {
		t.Fatal("the insert's propagation started no execute phase")
	}
	if bidders := during[0]; len(bidders) != 1 || bidders[0].Node != e.Doc.Labeled("bidder")[0] {
		t.Errorf("mid-propagation R_bidder holds %d items, want the one bidder there was before the insert", len(bidders))
	}
	if auctions := during[1]; len(auctions) != 2 || auctions[1].Node != e.Doc.Labeled("open_auction")[1] ||
		!strings.Contains(auctions[1].Node.Content(), "<increase>7</increase>") {
		t.Errorf("mid-propagation R_open_auction does not read o2, as it is now, with its new bidder in it")
	}
	for _, l := range []string{"bidder", "open_auction", "increase", "#text", "*"} {
		got, want := e.Store.Items(l), algebra.DocItems(e.Doc, l)
		if len(got) != len(want) {
			t.Errorf("after the insert R_%s holds %d items, the document %d", l, len(got), len(want))
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("after the insert R_%s[%d] is %v, the document's is %v", l, k, got[k].ID, want[k].ID)
			}
		}
	}
	checkViews(t, e, "bidder inserted")
	if mv.View.Len() != 2 {
		t.Errorf("%d rows, want 2", mv.View.Len())
	}
}

// flipStep is one statement of a predicate-flip case: the flips it must
// propagate, and the rows the view must hold after it.
type flipStep struct {
	stmt            string
	flipIn, flipOut int64
	rows            int
}

// runFlips applies the steps to an engine maintaining one view over a
// published document, under each policy. After each statement the view and
// its snowcaps must equal a fresh evaluation and be the objects they were
// before it — propagated, not rebuilt — and the statement must have
// propagated the flips it names.
func runFlips(t *testing.T, src, view string, steps ...flipStep) {
	t.Helper()
	for _, policy := range []Policy{PolicySnowcaps, PolicyLeaves} {
		e, mvs := publishedEngine(t, src, policy, view)
		mv, m := mvs[0], e.Metrics()
		for _, s := range steps {
			when := policy.String() + ", " + s.stmt
			rows, lattice := mv.View, mv.Lattice
			in, out := counter(t, m, "core.predflip.in"), counter(t, m, "core.predflip.out")
			if rep := apply(t, e, s.stmt); rep.Views[0].Panicked {
				t.Fatalf("%s: the propagation panicked", when)
			}
			checkViews(t, e, when)
			checkLattice(t, e, mv, when)
			if mv.View != rows || mv.Lattice != lattice {
				t.Errorf("%s: the view or its lattice was rebuilt", when)
			}
			if in, out = counter(t, m, "core.predflip.in")-in, counter(t, m, "core.predflip.out")-out; in != s.flipIn || out != s.flipOut {
				t.Errorf("%s: %d flips in and %d out propagated, want %d and %d", when, in, out, s.flipIn, s.flipOut)
			}
			if mv.View.Len() != s.rows {
				t.Errorf("%s: %d rows, want %d", when, mv.View.Len(), s.rows)
			}
			e.Snapshot()
		}
	}
}

// TestPredicateFlipOnPublishedSpine: the probe that finds a value predicate
// flipping on an ancestor of the target must read the ancestor after the
// update, not the node it saw before — which, on a published document, the
// update left exactly as it was — and the flip is propagated, in both
// directions, by an insert and by a delete.
func TestPredicateFlipOnPublishedSpine(t *testing.T) {
	runFlips(t, `<r><a><t>x</t><b/></a><a><t>xy</t><b/></a></r>`, `//a[val="xy"]{ID}//b{ID}`,
		// Both a now read "xy…": the first flips in, the second out.
		flipStep{`insert <t>y</t> into /r/a/t[1]`, 1, 1, 1},
		flipStep{`delete /r/a/t/t`, 1, 1, 1})
}

// TestPredicateFlipShapes propagates flips where the developed terms and
// the relations' filters could go wrong.
func TestPredicateFlipShapes(t *testing.T) {
	t.Run("root anchored by /", func(t *testing.T) {
		// The nested r flips too, but cannot bind a /-anchored root.
		runFlips(t, `<r><b/><r>x<b/></r></r>`, `/r[val="xy"]{ID}//b{ID}`,
			flipStep{`insert <t>y</t> into /r`, 1, 0, 2},
			flipStep{`insert <t>y</t> into /r/r`, 0, 1, 0},
			flipStep{`delete /r/t`, 1, 0, 2},
			flipStep{`delete /r/r/t`, 0, 1, 0})
	})
	t.Run("leaf", func(t *testing.T) {
		runFlips(t, `<r><a><b>x</b></a><a><b>xy</b></a></r>`, `//a{ID}//b[val="xy"]{ID}`,
			flipStep{`insert <t>y</t> into /r/a/b`, 1, 1, 1},
			flipStep{`delete /r/a/b/t`, 1, 1, 1})
	})
	t.Run("non-stored internal node", func(t *testing.T) {
		// The flipped b's descendants do not flip with it: no developed
		// term has b alone on its ∆ side.
		runFlips(t, `<r><a><b>x<c/></b></a><a><b>xy<c/><c/></b></a></r>`, `//a{ID}//b[val="xy"]//c{ID}`,
			flipStep{`insert <t>y</t> into /r/a/b`, 1, 1, 1},
			flipStep{`delete /r/a/b/t`, 1, 1, 2})
	})
	t.Run("a flip and its statement's ∆ in one view", func(t *testing.T) {
		// The inserted b makes a's value "xy": the statement's terms must
		// join it with a as it was, unsatisfied, or the flip stage adds
		// its row a second time.
		runFlips(t, `<r><a>x<b/></a></r>`, `//a[val="xy"]{ID}//b{ID}`,
			flipStep{`insert <b>y</b> into /r/a`, 1, 0, 2},
			flipStep{`delete /r/a/b[2]`, 0, 1, 0})
	})
	t.Run("two on one chain, opposite ways", func(t *testing.T) {
		// One statement flips a in and its first b out.
		runFlips(t, `<r><a><b>x</b><b>x</b></a></r>`, `//a[val="xzx"]{ID}//b[val="x"]{ID}`,
			flipStep{`insert <t>z</t> into /r/a/b[1]`, 1, 1, 1},
			flipStep{`delete /r/a/b/t`, 1, 1, 0})
	})
}
