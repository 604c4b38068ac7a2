package core

import (
	"math/rand"
	"runtime"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmark"
)

// TestSnapshotRestoreAndMaintain: a view restored the way a checkpoint
// restores one — its pattern evaluated in a fresh engine over an identical
// document brought to the same state — equals the view maintained through
// that state and keeps maintaining correctly.
func TestSnapshotRestoreAndMaintain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src := randomXML(rng, 3, 4)
	patternSrc := `//a{ID}[//b{ID}//c{ID}]//d{ID,val}`

	// First engine: materialize, then apply a statement.
	d1 := mustDoc(t, src)
	e1 := New(d1)
	mv1 := addView(t, e1, patternSrc)
	apply(t, e1, `insert <b><c>5</c></b> into /root//a`)

	// Second engine: same document brought to the same state, view
	// evaluated there instead of maintained.
	d2 := mustDoc(t, src)
	e2 := New(d2)
	if _, err := e2.ApplyStatement(update.MustParse(`insert <b><c>5</c></b> into /root//a`)); err != nil {
		t.Fatal(err)
	}
	mv2 := addView(t, e2, patternSrc)
	// The two engines assign Dewey IDs deterministically, so the rows of
	// both name the same IDs.
	if !mv2.View.EqualRows(mv1.View.Rows()) {
		t.Fatal("restored view differs from original")
	}
	for step := 0; step < 5; step++ {
		stmt := randomStatement(rng)
		if _, err := e1.ApplyStatement(update.MustParse(stmt)); err != nil {
			t.Fatal(err)
		}
		if _, err := e2.ApplyStatement(update.MustParse(stmt)); err != nil {
			t.Fatal(err)
		}
		if !mv2.View.EqualRows(mv1.View.Rows()) {
			t.Fatalf("step %d: restored view diverged", step)
		}
		if !e2.CheckView(mv2) {
			t.Fatalf("step %d: restored view inconsistent with recomputation", step)
		}
	}
}

// TestSnapshotAllocBudget (d): the first epoch of a parsed 1 MB document is
// the parsed tree itself, and publishing a single-node insert into it
// allocates a spine and a handful of slice headers, not a document. The
// budget is two orders of magnitude above the former and two below the
// latter (a deep copy of these 70k nodes is over 10 MB), so it fails only
// if an O(document) copy — of the tree, of an ID index, of an unmoved
// view's rows — comes back.
func TestSnapshotAllocBudget(t *testing.T) {
	doc := mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	e := New(doc, WithMetrics(obs.New()))
	for _, name := range xmark.ViewNames() {
		if _, err := e.AddView(name, xmark.View(name)); err != nil {
			t.Fatal(err)
		}
	}
	first := e.Snapshot()
	if got := first.Doc().CopiedNodes(); got != 0 {
		t.Errorf("the first epoch copied %d of %d nodes, want none", got, first.Doc().Size())
	}
	apply(t, e, `insert <xnote/> into /site/open_auctions/open_auction[@id="open_auction0"]`)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := e.Snapshot()
	runtime.ReadMemStats(&after)

	if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 128 {
		t.Errorf("Engine.Snapshot allocated %d KB after a single-node insert, budget 128 KB", kb)
	}
	if got := snap.Doc().CopiedNodes(); got != 4 { // site, open_auctions, open_auction, xnote
		t.Errorf("image copied %d of %d nodes, want 4", got, snap.Doc().Size())
	}
	for i := range snap.Views {
		if snap.Views[i].Rows != first.Views[i].Rows {
			t.Errorf("view %s took new rows, none moved", snap.Views[i].Name)
		}
	}
	if snap.Doc().Size() != first.Doc().Size()+1 || snap.Doc().String() != e.Doc.String() {
		t.Error("image does not match the live document")
	}
}

// benchViews are the seven views every benchmark tenant carries.
var benchViews = [][2]string{
	{"Q1", xmark.View("Q1").String()},
	{"Q2", xmark.View("Q2").String()},
	{"R1", `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
	{"R2", `//open_auction{ID}//bidder{ID}`},
	{"R3", `//bidder{ID}//increase{ID,val}`},
	{"R4", `//open_auction{ID}//initial{ID,val}`},
	{"R5", `//open_auction{ID}//increase{ID,val}`},
}

// TestUpdateAllocBudget holds what the benchmark's update pairs allocate
// from statement to published epoch: a forest inserted under one
// id-addressed node of a 1 MB document and deleted again, seven views
// maintained, an epoch published after each, on a tenant that has served a
// `//bidder` read, whose label index holds the labels its views and that
// read asked for and no other. What is left is the ∆ itself (delta tables,
// the joins' output, the rows they project to), the spine the pair
// path-copies — of each wide parent on it, its slice of branches and one
// leaf of ≤ 64 children — and, of each label list, of the run of lists and
// of each moved view's rows, the leaf it lands in and the path above it. The
// ∆ tables are built once a statement for all seven views, and a view's
// propagation fills no map. The bidder pair under open_auctions (685
// children) is 38 KB, 42 while the index held every label and the pair
// patched the #text, date and xbench lists no one read, 56 while each view
// walked the forest for its own tables and kept its inputs, phases and
// relations in maps, 66 while each spine copy took its parent's whole child
// list; the name pair under people (1,278 children, the widest list) is 44
// KB, 47, 59 and 77 before. Each budget is its measure and 15%. A hash of
// the snowcaps the ∆ is joined with (685–1,278 tuples each, four views) or a
// copy of R_bidder and R_increase because propagation read them, either one
// puts the bidder pair past its budget; both came to 0.37 MB.
//
// Those tries start with every pool empty: they pay for a query machine
// and for a statement scratch (DESIGN §10, "An update allocates what it
// keeps"). A second figure is the cheapest of 64 pairs run back to back,
// every pool warm (under the race detector, which drops a quarter of what
// a pool is given back, about one pair in eight finds them all), each
// report released as the update handler releases it: the bidder pair is
// 12 KB and the name pair 9, 14 and 10 while every statement's report and
// its per-view array were made afresh, 19 and 13 while every statement
// built its ∆ tables, filtered inputs, join buffers, covers, masks, PUL
// and pruned terms afresh. Each warm budget is its measure and 15% too.
func TestUpdateAllocBudget(t *testing.T) {
	for _, fam := range []struct {
		name, ins, del   string
		budgetKB, warmKB uint64
	}{
		{"bidder",
			`insert <bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder> into /site/open_auctions/open_auction[@id="open_auction0"]`,
			`delete /site/open_auctions/open_auction[@id="open_auction0"]/bidder[xbench]`,
			44, 14},
		{"name",
			`insert <name>Bench Mark<xbench/></name> into /site/people/person[@id="person0"]`,
			`delete /site/people/person[@id="person0"]/name[xbench]`,
			51, 11},
	} {
		t.Run(fam.name, func(t *testing.T) {
			updateAllocBudget(t, update.MustParse(fam.ins), update.MustParse(fam.del), fam.budgetKB, fam.warmKB)
		})
	}
}

func updateAllocBudget(t *testing.T, ins, del *update.Statement, budgetKB, warmKB uint64) {
	doc := mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	e := New(doc, WithMetrics(obs.New()))
	for _, v := range benchViews {
		if _, err := e.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
	}
	// Each report goes back to the pool, as the update handler's does once
	// it has written the answer.
	apply := func(st *update.Statement) {
		rep, err := e.ApplyStatement(st)
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	pair := func() *Snapshot {
		apply(ins)
		e.Snapshot()
		apply(del)
		return e.Snapshot()
	}
	e.Doc.Labeled("bidder") // the tenant has served a `//bidder` read, a label its views indexed already
	e.Snapshot()
	pair() // first use builds what later pairs carry: program cache, array room

	// Each try starts from two collections: the second empties the pool of
	// query machines (a sync.Pool keeps one victim generation), so every try
	// pays for the one machine the statements find their targets with. The
	// least of five: under -race a pool drops a quarter of what is put back
	// at random, and the machine a drop costs again is not the pair's.
	var snap *Snapshot
	kb := ^uint64(0)
	for range 5 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap = pair()
		runtime.ReadMemStats(&after)
		kb = min(kb, (after.TotalAlloc-before.TotalAlloc)>>10)
	}
	t.Logf("insert + delete + two epochs allocated %d KB", kb)
	if kb >= budgetKB {
		t.Errorf("an insert/delete pair allocated %d KB, budget %d KB", kb, budgetKB)
	}
	warm := ^uint64(0)
	for range 64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap = pair()
		runtime.ReadMemStats(&after)
		warm = min(warm, (after.TotalAlloc-before.TotalAlloc)>>10)
	}
	t.Logf("with every pool warm, %d KB", warm)
	if warm >= warmKB {
		t.Errorf("an insert/delete pair with every pool warm allocated %d KB, budget %d KB", warm, warmKB)
	}
	for _, mv := range e.Views {
		if !e.CheckView(mv) {
			t.Errorf("view %s diverged from recomputation", mv.Name)
		}
	}
	if snap.Doc().String() != e.Doc.String() {
		t.Error("image does not match the live document")
	}
}

// benchEngine is a 1 MB tenant with the benchmark's seven views that has
// served a `//x` read and published its first epoch.
func benchEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	doc := mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	e := New(doc, append([]Option{WithMetrics(obs.New())}, opts...)...)
	for _, v := range benchViews {
		if _, err := e.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
	}
	e.Doc.Labeled("bidder")
	e.Snapshot()
	return e
}

// TestBulkInsertAllocBudget holds the paper's Appendix-A bulk shape, which
// the benchmark's traffic never produces: a whole open_auction inserted and
// deleted again. Under Snowcaps it binds a non-leaf level of Q2's snowcap
// chain, so the recurrence's first branch joins the level's additions with
// (R ∪ ∆) of the next node. Joined as two relations where they lie,
// reading that one R, the pair is ~0.1 MB. Concatenating R_x ∪ ∆_x into a
// fresh array first is 0.18 MB; reading all five of Q2's relations to use
// one, or hashing the snowcaps the ∆ is joined with, 0.32 MB each; all
// three 0.55 MB. Under the served policy, which keeps no lattice, the pair
// is 34 KB: Proposition 3.8 leaves the auction's terms only R_site and
// R_open_auctions to read, a node each. Each budget is its measure and
// about 15% (the snowcaps one as it was set before it fell).
func TestBulkInsertAllocBudget(t *testing.T) {
	for _, c := range []struct {
		policy   Policy
		budgetKB uint64
	}{{PolicySnowcaps, 175}, {PolicyLeaves, 40}} {
		t.Run(c.policy.String(), func(t *testing.T) {
			bulkInsertAllocBudget(t, benchEngine(t, WithPolicy(c.policy)), c.budgetKB)
		})
	}
}

func bulkInsertAllocBudget(t *testing.T, e *Engine, budgetKB uint64) {
	ins := update.MustParse(`insert <open_auction id="zz"><initial/><bidder><date/><increase/></bidder></open_auction> into /site/open_auctions`)
	del := update.MustParse(`delete /site/open_auctions/open_auction[@id="zz"]`)
	pair := func() {
		for _, st := range []*update.Statement{ins, del} {
			if _, err := e.ApplyStatement(st); err != nil {
				t.Fatal(err)
			}
			e.Snapshot()
		}
	}
	pair() // array room, program cache

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair()
	runtime.ReadMemStats(&after)

	kb := (after.TotalAlloc - before.TotalAlloc) >> 10
	t.Logf("open_auction insert + delete + two epochs allocated %d KB", kb)
	if kb >= budgetKB {
		t.Errorf("an open_auction insert/delete pair allocated %d KB, budget %d KB", kb, budgetKB)
	}
	if _, err := e.ApplyStatement(ins); err != nil {
		t.Fatal(err)
	}
	for _, mv := range e.Views {
		if !e.CheckView(mv) {
			t.Errorf("view %s diverged from recomputation", mv.Name)
		}
		checkLattice(t, e, mv, "view "+mv.Name+" with the auction in")
	}
}

// TestBenchmarkUpdatesReadNoRelation: under the default policy every R-side
// of the benchmark's updates is a materialized snowcap or nothing, so an
// insert and a delete of each of its three families — a bidder under an
// open_auction, a name under a person, an xnote under a category, which no
// view covers — read no canonical relation. That is what lets the store
// copy a relation out of the label index on every read: the serving path
// never pays for one.
func TestBenchmarkUpdatesReadNoRelation(t *testing.T) {
	e := benchEngine(t)
	scans := e.Metrics().Counter("store.scan.count")
	for _, fam := range []struct{ target, forest, path string }{
		{`/site/open_auctions/open_auction[@id="open_auction0"]`, `<bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder>`, "bidder[xbench]"},
		{`/site/people/person[@id="person0"]`, `<name>Bench Mark<xbench/></name>`, "name[xbench]"},
		{`/site/categories/category[@id="category0"]`, `<xnote><xtext>bench</xtext></xnote>`, "xnote"},
	} {
		for _, st := range []string{"insert " + fam.forest + " into " + fam.target, "delete " + fam.target + "/" + fam.path} {
			before := scans.Value()
			rep := apply(t, e, st)
			if rep.Targets != 1 {
				t.Fatalf("%s: %d targets, want 1", st, rep.Targets)
			}
			if got := scans.Value() - before; got != 0 {
				t.Errorf("%s read %d canonical relations, want none", st, got)
			}
			e.Snapshot()
		}
	}
	checkViews(t, e, "after the benchmark's three families")
}

// TestLiveHeapPerNodeBudget holds what a served tenant keeps per document
// node: the tree with the label index of the labels its views and reads
// asked for, the store, the benchmark's seven views and one published epoch,
// at 1 MB. An ID is one string whose frames name their labels by code, a
// first-child chain of nodes holds its keys in one such string, a node names
// its label by the same code and holds its key, value and child slice as
// pointers and lengths (a 32-byte node), the tree is its own ID index, an
// epoch is that same tree, the canonical relations are read from the
// label index, the served policy keeps no snowcap lattice, and a view row
// is one array of its ID keys and images, and a parse cuts the tree's
// values and keys from 4 KB byte-slab chunks rather than allocating each in
// its size class, which comes to ~70 B a node here (also under -race; ~73
// and ~76 with an allocation per value and key), as much as a tenant
// restored from a checkpoint
// (wal.TestRestoredHeapPerNodeBudget); the seven views' snowcap lattices,
// each tuple a stripe of IDs and a count in its mat's two arrays, add ~6 B,
// a view row pointing at an array of 56-byte entries ~7 B, an index of
// every label, asked for or not, ~8 B. The source text is held across both
// readings: freed between them, it would hide ~19 B a node. A key string
// of every node's own adds ~15 B; a second per-label array beside the
// index — the store's own item arrays, as it kept them before — ~28 B; one
// more field on the node, a 48-byte node, ~16 B, and the 64-byte node of
// string and slice headers ~32 B; frames that spell their labels out ~40 B;
// a second copy of the document ~380 B, a per-node step array or a
// key→node map ~770 B. The budget sits below all of them.
func TestLiveHeapPerNodeBudget(t *testing.T) {
	src := xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	doc := mustDoc(t, src)
	doc.Labeled("bidder") // a served tenant has answered `//bidder`, a label its views index too
	e := New(doc, WithMetrics(obs.New()))
	for _, v := range benchViews {
		if _, err := e.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := e.Doc.Size()
	perNode := int(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("%d nodes, %d B of live heap per node", nodes, perNode)
	if perNode > 73 {
		t.Errorf("engine + one epoch hold %d B per document node, budget 73", perNode)
	}
	runtime.KeepAlive(snap)
	runtime.KeepAlive(e)
	runtime.KeepAlive(src)
}
