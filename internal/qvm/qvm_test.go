package qvm

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"xivm/internal/dewey"
	"xivm/internal/difftest/oracle"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

const auctionDoc = `<site>
  <people>
    <person id="person0"><name>Ann</name><phone>123</phone><profile income="40k"><age>30</age></profile></person>
    <person id="person1"><name>Bob</name><homepage>http://b</homepage></person>
    <person id="person2"><name>Cy</name></person>
  </people>
  <regions>
    <namerica><item><name>i0</name><description>d0</description></item></namerica>
    <europe><item><name>i1</name></item></europe>
  </regions>
  <open_auctions>
    <open_auction><bidder><increase>4.50</increase></bidder><reserve>10</reserve></open_auction>
    <open_auction><privacy>Yes</privacy><bidder><increase>7.00</increase></bidder><bidder><increase>9.00</increase></bidder></open_auction>
  </open_auctions>
</site>`

// queryCorpus spans the full widened grammar; reused as fuzz seeds.
var queryCorpus = []string{
	"/site/people/person",
	"//person",
	"/site//item",
	"/site/regions/*/item",
	"//name/text()",
	"/site/people/person/@id",
	"/site/people/person[phone or homepage]",
	"/site/people/person[@id=\"person1\"]",
	"//open_auction[bidder/increase=\"4.50\"]",
	"//person[profile/@income]",
	"//item[description][name]",
	"//open_auction[reserve and (bidder or privacy)]",
	"/site/people/following-sibling::regions",
	"/site/open_auctions/preceding-sibling::*[1]",
	"//bidder/following-sibling::reserve",
	"//reserve/preceding-sibling::bidder",
	"/site/people/person[2]",
	"/site/people/person[last()]",
	"//person[homepage][1]",
	"//open_auction[count(bidder)>=2]",
	"//person[count(profile/age)<1]",
	"//person[contains(name,'n')]",
	"//person[starts-with(@id,'person')]",
	"//open_auction/bidder[last()]/increase",
	"//*[count(*)>2]",
}

func mustDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameIDs compares results from two copies of one document.
func sameIDs(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].ID().Equal(b[i].ID()) {
			return false
		}
	}
	return true
}

// editedImage publishes d, applies random edits, and publishes again: the
// returned image is path-copied — part fresh spine, part shared with the
// first image, no Parent pointers — as every epoch the server evaluates
// queries on is.
func editedImage(rng *rand.Rand, d *xmltree.Document) *xmltree.Document {
	d.Snapshot()
	oracle.RandomEdits(rng, d)
	return d.Snapshot()
}

func TestCompiledMatchesInterpretedOnCorpus(t *testing.T) {
	t.Run("parsed", func(t *testing.T) { testCorpus(t, mustDoc(t, auctionDoc)) })
	t.Run("image", func(t *testing.T) {
		testCorpus(t, editedImage(rand.New(rand.NewSource(5)), mustDoc(t, auctionDoc)))
	})
}

func testCorpus(t *testing.T, d *xmltree.Document) {
	for _, q := range queryCorpus {
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		got := prog.Eval(d)
		want := oracle.Eval(d, p)
		if !sameNodes(got, want) {
			t.Errorf("%s: compiled %d nodes, interpreted %d nodes\n%s", q, len(got), len(want), prog.Disasm())
		}
	}
}

func TestCompiledMatchesInterpretedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		d := mustDoc(t, oracle.RandomDoc(rng))
		q := oracle.RandomQuery(rng)
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		got := prog.Eval(d)
		want := oracle.Eval(d, p)
		if !sameNodes(got, want) {
			t.Fatalf("trial %d: %s: compiled %d vs interpreted %d nodes", trial, q, len(got), len(want))
		}
		img := editedImage(rng, d)
		if got := prog.Eval(img); !sameNodes(got, oracle.Eval(img, p)) || !sameIDs(got, prog.Eval(d)) {
			t.Fatalf("trial %d: %s over the image of %s: compiled, interpreted and live answers differ", trial, q, d)
		}
	}
}

func TestCompileRejectsEmptyPath(t *testing.T) {
	if _, err := Compile(xpath.Path{}); err == nil {
		t.Fatal("empty path must not compile")
	}
}

func TestEvalIntoReusesMachine(t *testing.T) {
	d := mustDoc(t, auctionDoc)
	prog, err := CompileString("//open_auction[count(bidder)>=1]/bidder/increase")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	warm := prog.EvalInto(m, d, nil)
	if len(warm) != 3 {
		t.Fatalf("warmup = %d nodes", len(warm))
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf := prog.EvalInto(m, d, make([]*xmltree.Node, 0, 8))
		if len(buf) != 3 {
			t.Fatal("wrong result")
		}
	})
	// One allocation per run is the result buffer we make in the closure;
	// the evaluation itself must not allocate in steady state.
	if allocs > 1 {
		t.Fatalf("EvalInto allocates %v times per run", allocs)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	pa, _ := CompileString("/a")
	pb, _ := CompileString("/b")
	pc2, _ := CompileString("/c")
	if evicted := c.Add("/a", pa); evicted {
		t.Fatal("no eviction expected")
	}
	c.Add("/b", pb)
	// Touch /a so /b becomes the LRU victim.
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("expected hit for /a")
	}
	if evicted := c.Add("/c", pc2); !evicted {
		t.Fatal("expected eviction adding /c")
	}
	if _, ok := c.Get("/b"); ok {
		t.Fatal("/b should have been evicted")
	}
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("/a should have survived")
	}
	if _, ok := c.Get("/c"); !ok {
		t.Fatal("/c should be cached")
	}
	// Re-adding an existing key updates in place without eviction.
	if evicted := c.Add("/a", pa); evicted {
		t.Fatal("re-add must not evict")
	}
}

// FuzzCompiledVsInterpreted is the differential fuzz target over the
// widened grammar: any parsable query must produce byte-identical results
// from the compiled program and the interpreted oracle, on a document
// derived from the fuzz input.
func FuzzCompiledVsInterpreted(f *testing.F) {
	for _, q := range queryCorpus {
		f.Add(q, int64(1))
	}
	f.Fuzz(func(t *testing.T, query string, seed int64) {
		p, err := xpath.Parse(query)
		if err != nil {
			return
		}
		prog, err := Compile(p)
		if err != nil {
			t.Fatalf("parsed query %q fails to compile: %v", query, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3; i++ {
			d, err := xmltree.ParseString(oracle.RandomDoc(rng))
			if err != nil {
				t.Fatal(err)
			}
			got := prog.Eval(d)
			want := oracle.Eval(d, p)
			if !sameNodes(got, want) {
				t.Fatalf("%q: compiled %d nodes, interpreted %d", query, len(got), len(want))
			}
			// And on a path-copied image, against the interpreter there
			// and the program on the edited live tree.
			img := editedImage(rng, d)
			if got := prog.Eval(img); !sameNodes(got, oracle.Eval(img, p)) || !sameIDs(got, prog.Eval(d)) {
				t.Fatalf("%q over the image of %s: compiled, interpreted and live answers differ", query, d)
			}
		}
	})
}

// TestCompiledEvalSeesMutations guards against a stale label index: the
// leading-descendant fast path answers from Document.Labeled, which every
// structural mutator must keep in step. Evaluate, mutate, evaluate again —
// the compiled result must track the document exactly like the interpreter.
func TestCompiledEvalSeesMutations(t *testing.T) {
	d, err := xmltree.ParseString(`<r><a><b/></a><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileString("//b")
	if err != nil {
		t.Fatal(err)
	}
	if n := prog.Eval(d); len(n) != 2 {
		t.Fatalf("initial: %d matches, want 2", len(n))
	}

	tmpl, err := xmltree.ParseString(`<b><b/></b>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyInsert(d.Root, tmpl.Root.Clone()); err != nil {
		t.Fatal(err)
	}
	if n := prog.Eval(d); len(n) != 4 {
		t.Fatalf("after insert: %d matches, want 4", len(n))
	}

	targets := prog.Eval(d)
	if _, _, err := d.ApplyDeleteBatch(targets[:1]); err != nil {
		t.Fatal(err)
	}
	p, err := xpath.Parse("//b")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Eval(d)
	want := oracle.Eval(d, p)
	if len(got) != len(want) {
		t.Fatalf("after delete: compiled %d matches, interpreted %d", len(got), len(want))
	}
}

var neverSeenRuns atomic.Int32

// TestReadsNeverGrowTheLabelTable: compiling and running queries that name a
// label no document holds assigns it no code — a read leaves the
// process-wide label table as it was — and the programs compiled then still
// match the label, node for node with the interpreter, once an insert has
// given it a code: a cached program never goes stale.
func TestReadsNeverGrowTheLabelTable(t *testing.T) {
	name := fmt.Sprintf("zz-never-seen-%d", neverSeenRuns.Add(1)) // fresh under -count
	d := mustDoc(t, auctionDoc)
	queries := []string{
		"//" + name, "//@" + name, // the label index
		"/site//" + name, "/site/people/person/" + name + "/@" + name, "//person[" + name + "]", // the node test
	}
	before, _ := dewey.LabelStats()
	progs := make([]*Program, len(queries))
	for i, q := range queries {
		prog, err := CompileString(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := prog.Eval(d); len(got) != 0 {
			t.Fatalf("%s matches %d nodes of a document without the label", q, len(got))
		}
		progs[i] = prog
	}
	if after, _ := dewey.LabelStats(); after != before {
		t.Fatalf("compiling and running %d queries over an absent label assigned %d codes", len(queries), after-before)
	}

	forest, err := xmltree.ParseForest(fmt.Sprintf(`<%s %s="v"/>`, name, name))
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := dewey.LabelStats(); after != before+2 {
		t.Fatalf("fixture: parsing %q and @%s assigned %d codes, want 2", name, name, after-before)
	}
	if _, err := d.ApplyInsert(d.Labeled("person")[0], forest[0]); err != nil {
		t.Fatal(err)
	}
	for i, prog := range progs {
		got, want := prog.Eval(d), oracle.Eval(d, xpath.MustParse(queries[i]))
		if len(got) != 1 || !sameNodes(got, want) {
			t.Fatalf("%s, compiled before the label had a code: %d matches, the interpreter %d", queries[i], len(got), len(want))
		}
	}
}
