package xpath_test

import (
	"errors"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/difftest/oracle"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// TestToPatternShapes pins the exact tree pattern each bridgeable query
// translates to, via the pattern grammar's canonical string form.
func TestToPatternShapes(t *testing.T) {
	cases := []struct{ query, want string }{
		{`/site/people/person/name`, `/site/people/person/name{ID,val}`},
		{`//open_auction//increase`, `//open_auction//increase{ID,val}`},
		{`//open_auction//bidder//increase`, `//open_auction//bidder//increase{ID,val}`},
		{`//open_auction[bidder]//initial`, `//open_auction[/bidder]//initial{ID,val}`},
		{`//person[profile and homepage]/name`, `//person[/profile][/homepage]/name{ID,val}`},
		{`//person[profile][homepage]/name`, `//person[/profile][/homepage]/name{ID,val}`},
		{`//person[@id="p0"]/name`, `//person[/@id[val="p0"]]/name{ID,val}`},
		{`//open_auction[initial="5"]//bidder`, `//open_auction[/initial[val="5"]]//bidder{ID,val}`},
		{`//person/@id`, `//person/@id{ID,val}`},
		{`//person[profile//age]/name`, `//person[/profile//age]/name{ID,val}`},
	}
	for _, c := range cases {
		p, err := xpath.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		got, err := xpath.ToPattern(p)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		want := pattern.MustParse(c.want)
		if got.String() != want.String() {
			t.Errorf("%s: bridged to %s, want %s", c.query, got, want)
		}
	}
}

// TestToPatternNotExpressible verifies every unsupported construct is
// refused with the typed error (the serving layer's fallback signal).
func TestToPatternNotExpressible(t *testing.T) {
	for _, q := range []string{
		`//person[name or homepage]`,
		`/site//person[1]`,
		`//person[last()]`,
		`//person/following-sibling::person`,
		`//person/preceding-sibling::person`,
		`//*`,
		`//person/*`,
		`//name/text()`,
		`//open_auction[count(bidder)>=2]`,
		`//person[contains(name,"x")]/name`,
		`//person[starts-with(name,"x")]/name`,
		`/site/people/person/@id/foo`,
	} {
		p, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		_, err = xpath.ToPattern(p)
		var ne *xpath.NotExpressibleError
		if !errors.As(err, &ne) {
			t.Errorf("%s: expected NotExpressibleError, got %v", q, err)
		}
	}
}

// TestBridgeMatchesEval: for every bridgeable query, the pattern's
// materialized result column must equal the tree walk's matches — same
// IDs, same string values, same document order.
func TestBridgeMatchesEval(t *testing.T) {
	doc, err := xmltree.ParseString(`<site><people>` +
		`<person id="p0"><name>Ann</name><profile><age>30</age></profile><homepage>h0</homepage></person>` +
		`<person id="p1"><name>Bob</name><profile><age>41</age></profile></person>` +
		`</people><open_auctions>` +
		`<open_auction id="a0"><initial>5</initial><bidder><increase>3</increase></bidder><bidder><increase>7</increase></bidder></open_auction>` +
		`<open_auction id="a1"><initial>9</initial></open_auction>` +
		`</open_auctions></site>`)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`/site`,
		`//site`,
		`/people`, // root label mismatch: empty both ways
		`/site/people/person/name`,
		`//person/name`,
		`//person//name`,
		`//open_auction//increase`,
		`//open_auction/bidder/increase`,
		`//person[profile]/name`,
		`//person[profile and homepage]/name`,
		`//person[@id="p1"]/name`,
		`//open_auction[initial="5"]//increase`,
		`//person/@id`,
		`//person[profile//age]/homepage`,
	}
	for _, qs := range queries {
		p, err := xpath.Parse(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		pat, err := xpath.ToPattern(p)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		rows := algebra.Materialize(doc, pat)
		want := oracle.Eval(doc, p)
		if len(rows) != len(want) {
			t.Fatalf("%s: pattern %d rows, tree walk %d matches", qs, len(rows), len(want))
		}
		shape := algebra.NewShape(pat)
		for i := range rows {
			e := shape.Entry(rows[i], 0)
			if e.ID.Key() != want[i].ID().Key() {
				t.Fatalf("%s: match %d ID %s != %s", qs, i, e.ID, want[i].ID())
			}
			if e.Val != want[i].StringValue() {
				t.Fatalf("%s: match %d value %q != %q", qs, i, e.Val, want[i].StringValue())
			}
		}
	}
}
