package xmark

import (
	"strings"
	"testing"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

func genDoc(t *testing.T, bytes int, seed uint64) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(Generate(Config{TargetBytes: bytes, Seed: seed}))
	if err != nil {
		t.Fatalf("generated document does not parse: %v", err)
	}
	return d
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{TargetBytes: 50 << 10, Seed: 7})
	b := Generate(Config{TargetBytes: 50 << 10, Seed: 7})
	if a != b {
		t.Fatal("generator not deterministic")
	}
	c := Generate(Config{TargetBytes: 50 << 10, Seed: 8})
	if a == c {
		t.Fatal("seed has no effect")
	}
}

// TestGenerateSmall: the differential-testing generator is deterministic,
// seed-sensitive, small, and yields documents every benchmark view accepts.
func TestGenerateSmall(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		src := GenerateSmall(seed)
		if src != GenerateSmall(seed) {
			t.Fatalf("seed %d: not deterministic", seed)
		}
		if len(src) > 32<<10 {
			t.Fatalf("seed %d: %d bytes is not small", seed, len(src))
		}
		d, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatalf("seed %d: does not parse: %v", seed, err)
		}
		e := core.NewEngine(d, core.Options{})
		for _, name := range ViewNames() {
			if _, err := e.AddView(name, View(name)); err != nil {
				t.Fatalf("seed %d view %s: %v", seed, name, err)
			}
		}
	}
	if GenerateSmall(1) == GenerateSmall(2) {
		t.Fatal("seed has no effect")
	}
}

func TestGenerateSizeScaling(t *testing.T) {
	small := len(Generate(Config{TargetBytes: 50 << 10, Seed: 1}))
	large := len(Generate(Config{TargetBytes: 500 << 10, Seed: 1}))
	if small < 40<<10 || small > 80<<10 {
		t.Fatalf("small size %d", small)
	}
	if large < 400<<10 || large > 700<<10 {
		t.Fatalf("large size %d", large)
	}
}

func TestGeneratedShape(t *testing.T) {
	d := genDoc(t, 100<<10, 42)
	counts := map[string]int{}
	for _, path := range []string{
		"/site/people/person", "/site/regions/namerica/item",
		"/site/open_auctions/open_auction", "//bidder/increase",
		"/site/people/person[phone or homepage]",
		"/site/people/person[profile/@income]",
		"//item[description]",
	} {
		counts[path] = len(xpath.Eval(d, xpath.MustParse(path)))
	}
	for path, n := range counts {
		if n == 0 {
			t.Errorf("no matches for %s", path)
		}
	}
	// The Q3 selectivity hook: some auctions must have a 4.50 increase.
	if n := len(xpath.Eval(d, xpath.MustParse(`//open_auction[bidder/increase="4.50"]`))); n == 0 {
		t.Error("no 4.50 increases generated")
	}
}

func TestAllViewsCompileAndMaterialize(t *testing.T) {
	d := genDoc(t, 80<<10, 3)
	e := core.NewEngine(d, core.Options{})
	for _, name := range ViewNames() {
		p := View(name)
		mv, err := e.AddView(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mv.View.Len() == 0 && name != "Q4" {
			// Q4 may be empty on tiny documents (person12 must have bid).
			t.Errorf("view %s empty on generated data", name)
		}
	}
}

func TestAllUpdatesParseAndAffectViews(t *testing.T) {
	for _, name := range ViewNames() {
		for _, un := range ViewUpdates(name) {
			u := UpdateByName(un)
			if u.InsertStatement().Kind != update.Insert {
				t.Fatalf("%s insert form wrong", un)
			}
			if u.DeleteStatement().Kind != update.Delete {
				t.Fatalf("%s delete form wrong", un)
			}
		}
	}
}

// TestWorkloadMaintenanceCorrect runs every (view, update) pair of the
// paper's Figures 20/21 on a small document and checks maintained views
// against recomputation, for inserts and deletes.
func TestWorkloadMaintenanceCorrect(t *testing.T) {
	src := Generate(Config{TargetBytes: 60 << 10, Seed: 11})
	for _, vname := range ViewNames() {
		for _, un := range ViewUpdates(vname) {
			for _, del := range []bool{false, true} {
				d, err := xmltree.ParseString(src)
				if err != nil {
					t.Fatal(err)
				}
				e := core.NewEngine(d, core.Options{})
				mv, err := e.AddView(vname, View(vname))
				if err != nil {
					t.Fatal(err)
				}
				u := UpdateByName(un)
				st := u.InsertStatement()
				if del {
					st = u.DeleteStatement()
				}
				if _, err := e.ApplyStatement(st); err != nil {
					t.Fatalf("%s/%s del=%v: %v", vname, un, del, err)
				}
				if !e.CheckView(mv) {
					t.Fatalf("%s/%s del=%v: view diverged from recomputation", vname, un, del)
				}
			}
		}
	}
}

func TestQ1Variants(t *testing.T) {
	for _, v := range AnnotationVariants() {
		p := Q1Variant(v)
		if p.Size() != 5 {
			t.Fatalf("%s size %d", v, p.Size())
		}
		for _, n := range p.Nodes {
			if !n.Store.Has(pattern.StoreID) {
				t.Fatalf("%s: node without ID", v)
			}
		}
	}
	if Q1Variant(VariantIDs).ContValIndexes() != nil {
		t.Fatal("IDs variant must store no val/cont")
	}
	if got := len(Q1Variant(VariantVCAll).ContValIndexes()); got != 5 {
		t.Fatalf("VC All cvn = %d", got)
	}
	if got := Q1Variant(VariantVCRoot).ContValIndexes(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("VC Root cvn = %v", got)
	}
}

func TestDepthPathsParse(t *testing.T) {
	for _, p := range DepthPaths() {
		if _, err := xpath.Parse(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

func TestViewSourcesRoundTrip(t *testing.T) {
	for _, n := range ViewNames() {
		if !strings.Contains(ViewSource(n), "return") {
			t.Fatalf("source for %s looks wrong", n)
		}
	}
}

func TestGeneratedFullSchema(t *testing.T) {
	d := genDoc(t, 120<<10, 9)
	for _, path := range []string{
		"/site/categories/category",
		"/site/categories/category/name",
		"/site/catgraph/edge",
		"/site/closed_auctions/closed_auction",
		"/site/closed_auctions/closed_auction/price",
	} {
		if n := len(xpath.Eval(d, xpath.MustParse(path))); n == 0 {
			t.Errorf("no matches for %s", path)
		}
	}
	// Section order matches XMark: categories, catgraph, people, regions,
	// open_auctions, closed_auctions.
	var order []string
	for _, c := range d.Root.ElementChildren() {
		order = append(order, c.Label())
	}
	want := []string{"categories", "catgraph", "people", "regions", "open_auctions", "closed_auctions"}
	if len(order) != len(want) {
		t.Fatalf("sections %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sections %v", order)
		}
	}
}

func TestCatgraphEdgesReferenceCategories(t *testing.T) {
	d := genDoc(t, 60<<10, 2)
	cats := map[string]bool{}
	for _, c := range xpath.Eval(d, xpath.MustParse("/site/categories/category/@id")) {
		cats[c.Value] = true
	}
	for _, e := range xpath.Eval(d, xpath.MustParse("/site/catgraph/edge/@from")) {
		if !cats[e.Value] {
			t.Fatalf("edge from unknown category %q", e.Value)
		}
	}
}
