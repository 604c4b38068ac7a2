package rewrite

import (
	"sync"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// fuzzDocXML is a small auction-shaped document with value-bearing leaves,
// branching elements and attributes, so bridged queries exercise residual
// parent checks, value predicates and all three plan shapes.
const fuzzDocXML = `<site><people>` +
	`<person id="p0"><name>Ann</name><profile><age>30</age></profile><homepage>h0</homepage></person>` +
	`<person id="p1"><name>Bob</name><profile><age>41</age></profile></person>` +
	`<person id="p2"><name>Cyd</name><homepage>h2</homepage></person>` +
	`</people><open_auctions>` +
	`<open_auction id="a0"><initial>5</initial><bidder><increase>3</increase></bidder><bidder><increase>7</increase></bidder></open_auction>` +
	`<open_auction id="a1"><initial>9</initial><bidder><increase>3</increase></bidder></open_auction>` +
	`<open_auction id="a2"><initial>2</initial></open_auction>` +
	`</open_auctions></site>`

// fuzzWorld is one document with the view library materialized over it.
type fuzzWorld struct {
	name string
	doc  *xmltree.Document
	lib  []*View
}

var (
	fuzzOnce   sync.Once
	fuzzWorlds []fuzzWorld // the live document, and its published image
)

func fuzzSetup() {
	live, err := xmltree.ParseString(fuzzDocXML)
	if err != nil {
		panic(err)
	}
	fuzzWorlds = []fuzzWorld{
		{name: "live", doc: live, lib: fuzzLibrary(live)},
		{name: "image", doc: live.Snapshot(), lib: fuzzLibrary(live.Snapshot())},
	}
}

func fuzzLibrary(d *xmltree.Document) []*View {
	mk := func(name, src string) *View {
		p := pattern.MustParse(src)
		return &View{Name: name, Pattern: p, Rows: RowSlice{algebra.Materialize(d, p)}}
	}
	return []*View{
		mk("chain-name", `/site{ID}/people{ID}/person{ID}/name{ID,val}`),
		mk("person-name", `//person{ID}//name{ID,val}`),
		mk("person-id", `//person{ID}/@id{ID,val}`),
		mk("person-profile", `//person{ID}//profile{ID,val}`),
		mk("person-homepage", `//person{ID}//homepage{ID,val}`),
		mk("auction-bidder", `//open_auction{ID}//bidder{ID,val}`),
		mk("bidder-increase", `//bidder{ID}//increase{ID,val}`),
		mk("auction-initial", `//open_auction{ID}//initial{ID,val}`),
		mk("auction-increase", `//open_auction{ID}//increase{ID,val}`),
	}
}

// FuzzRewriteVsTreeWalk is the end-to-end differential oracle for the
// bridge + rewrite pipeline: any query that parses, bridges, and finds a
// view plan must return exactly the tree walk's matches — same IDs, same
// values, same order — and exactly direct evaluation's rows, derivation
// counts included. The same holds for the query with every node's ID stored
// (answer columns then come from every piece of a multi-view plan), over
// the live document and over its image.
func FuzzRewriteVsTreeWalk(f *testing.F) {
	for _, seed := range []string{
		"/site/people/person/name",
		"//open_auction//increase",
		"//open_auction//bidder//increase",
		"//open_auction[bidder]//initial",
		"//person[profile]/name",
		"//person[profile and homepage]/name",
		`//person[@id="p0"]/name`,
		`//open_auction[initial="5"]//increase`,
		"//person/@id",
		"/site/people/person[homepage]/name",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, qs string) {
		fuzzOnce.Do(fuzzSetup)
		p, err := xpath.Parse(qs)
		if err != nil {
			t.Skip()
		}
		pat, err := xpath.ToPattern(p)
		if err != nil {
			t.Skip()
		}
		// The same pattern projected onto all of its nodes.
		wide := pat.Clone(func(_ int, st pattern.Store) pattern.Store { return st | pattern.StoreID })
		for _, w := range fuzzWorlds {
			rows, plan, err := Answer(pat, w.lib)
			if err != nil {
				t.Skip() // no plan from this library — fine
			}
			want := xpath.Eval(w.doc, p)
			if len(rows) != len(want) {
				t.Fatalf("%s %s (%s): rewrite %d matches, tree walk %d", w.name, qs, plan.Explain(), len(rows), len(want))
			}
			for i := range rows {
				e := rows[i].Entries[0]
				if e.ID.Key() != want[i].ID.Key() {
					t.Fatalf("%s %s (%s): match %d ID %s != %s", w.name, qs, plan.Explain(), i, e.ID, want[i].ID)
				}
				if e.Val != want[i].StringValue() {
					t.Fatalf("%s %s (%s): match %d value %q != %q", w.name, qs, plan.Explain(), i, e.Val, want[i].StringValue())
				}
			}
			for _, q := range []*pattern.Pattern{pat, wide} {
				rows, plan, err := Answer(q, w.lib)
				if err != nil {
					t.Fatalf("%s %s: %s planned but %s did not: %v", w.name, qs, pat, q, err)
				}
				if direct := algebra.Materialize(w.doc, q); !sameRows(rows, direct) {
					t.Fatalf("%s %s (%s): rewrite of %s\n got %+v\nwant %+v", w.name, qs, plan.Explain(), q, rows, direct)
				}
			}
		}
	})
}
