package xpath

import (
	"strings"
	"testing"

	"xivm/internal/xmltree"
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

func doc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(auctionDoc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func labels(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label()
	}
	return out
}

func evalCount(t *testing.T, d *xmltree.Document, expr string) int {
	t.Helper()
	p, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	return len(Eval(d, p))
}

func TestParseAndStringRoundTrip(t *testing.T) {
	exprs := []string{
		"/site/people/person",
		"//person",
		"/site//item",
		"/site/regions/*/item",
		"/site/people/person[@id]",
		"/site/people/person[phone and homepage]",
		"/site/people/person[phone or homepage]",
		"/site/people/person[address and (phone or homepage) and (creditcard or profile)]",
		"/site/people/person[@id=\"person0\"]",
		"//open_auction[bidder/increase=\"4.50\"]",
		"//person[profile/@income]",
		"//item[description][name]",
	}
	for _, e := range exprs {
		p, err := Parse(e)
		if err != nil {
			t.Fatalf("Parse(%q): %v", e, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", e, p.String(), err)
		}
		if p2.String() != p.String() {
			t.Fatalf("unstable print: %q vs %q", p.String(), p2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"person",               // relative where absolute required
		"/site[",               // unterminated predicate
		"/site/person[@id='x]", // unterminated literal
		"//",                   // missing step
		"/site extra",          // trailing garbage
		"/site/person[]",       // empty predicate
	}
	for _, e := range bad {
		if _, err := Parse(e); err == nil {
			t.Errorf("Parse(%q) should fail", e)
		}
	}
}

func TestEvalChildAndDescendant(t *testing.T) {
	d := doc(t)
	if got := evalCount(t, d, "/site/people/person"); got != 3 {
		t.Fatalf("person count %d", got)
	}
	if got := evalCount(t, d, "//person"); got != 3 {
		t.Fatalf("//person count %d", got)
	}
	if got := evalCount(t, d, "//increase"); got != 3 {
		t.Fatalf("//increase count %d", got)
	}
	if got := evalCount(t, d, "/site//item"); got != 2 {
		t.Fatalf("//item count %d", got)
	}
	if got := evalCount(t, d, "/nomatch"); got != 0 {
		t.Fatalf("nomatch count %d", got)
	}
	if got := evalCount(t, d, "//site"); got != 1 {
		t.Fatalf("//site should match the root, got %d", got)
	}
}

func TestEvalWildcard(t *testing.T) {
	d := doc(t)
	if got := evalCount(t, d, "/site/regions/*/item"); got != 2 {
		t.Fatalf("wildcard item count %d", got)
	}
	if got := evalCount(t, d, "/site/*"); got != 3 {
		t.Fatalf("site children count %d", got)
	}
}

func TestEvalAttributesAndText(t *testing.T) {
	d := doc(t)
	p := MustParse("/site/people/person/@id")
	ids := Eval(d, p)
	if len(ids) != 3 || ids[0].Value != "person0" {
		t.Fatalf("ids = %v", labels(ids))
	}
	txt := Eval(d, MustParse("//name/text()"))
	if len(txt) != 5 {
		t.Fatalf("text nodes %d", len(txt))
	}
}

func TestEvalPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		want int
	}{
		{"/site/people/person[@id]", 3},
		{"/site/people/person[phone]", 1},
		{"/site/people/person[phone and homepage]", 0},
		{"/site/people/person[phone or homepage]", 2},
		{"/site/people/person[@id=\"person1\"]", 1},
		{"/site/people/person[@id=\"nobody\"]", 0},
		{"//person[profile/@income]", 1},
		{"//open_auction[bidder/increase=\"4.50\"]", 1},
		{"//open_auction[privacy and bidder]", 1},
		{"//open_auction[bidder or privacy]", 2},
		{"//open_auction[reserve and (bidder or privacy)]", 1},
		{"//item[description][name]", 1},
		{"//item[name='i1']", 1},
		{"//person[name='Ann' and phone]", 1},
	}
	for _, c := range cases {
		if got := evalCount(t, d, c.expr); got != c.want {
			t.Errorf("%s: got %d want %d", c.expr, got, c.want)
		}
	}
}

func TestEvalDocumentOrderAndDedup(t *testing.T) {
	d := doc(t)
	nodes := Eval(d, MustParse("//bidder//increase"))
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID.Compare(nodes[i].ID) >= 0 {
			t.Fatal("results not in document order")
		}
	}
	// // over // must not duplicate.
	nodes = Eval(d, MustParse("//site//increase"))
	if len(nodes) != 3 {
		t.Fatalf("dedup failed: %d", len(nodes))
	}
}

func TestEvalRelative(t *testing.T) {
	d := doc(t)
	person := Eval(d, MustParse("/site/people/person[@id=\"person0\"]"))[0]
	rel, err := ParseRelative("profile/age")
	if err != nil {
		t.Fatal(err)
	}
	got := EvalRelative(person, rel)
	if len(got) != 1 || got[0].StringValue() != "30" {
		t.Fatalf("relative eval = %v", got)
	}
}

func TestKeywordNotConfusedWithNames(t *testing.T) {
	d, err := xmltree.ParseString(`<r><order>1</order><android>2</android><x><order/><android/></x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Eval(d, MustParse("/r/x[order and android]"))); got != 1 {
		t.Fatalf("and with name-prefix labels: %d", got)
	}
	if got := len(Eval(d, MustParse("/r[order or android]"))); got != 1 {
		t.Fatalf("or with name-prefix labels: %d", got)
	}
}

func TestIsLinearAndDeweySteps(t *testing.T) {
	p := MustParse("/site/people/person")
	if !p.IsLinear() {
		t.Fatal("expected linear")
	}
	if MustParse("/site/people/person[@id]").IsLinear() {
		t.Fatal("predicate path must not be linear")
	}
	steps, ok := p.DeweySteps()
	if !ok || len(steps) != 3 || steps[0].Label != "site" || steps[0].Desc {
		t.Fatalf("DeweySteps = %v ok=%v", steps, ok)
	}
	if _, ok := MustParse("//name/text()").DeweySteps(); ok {
		t.Fatal("text() path should not convert")
	}
	dsteps, ok := MustParse("//person/@id").DeweySteps()
	if !ok || dsteps[1].Label != "@id" {
		t.Fatalf("attr DeweySteps = %v", dsteps)
	}
}

// pathCopied returns an image of d with the same content but a path-copied
// spine: a node is inserted next to the bidders and deleted again between
// two publications, so site, open_auctions and one open_auction are fresh
// copies while people and regions are shared with the first image — and no
// node has a Parent pointer.
func pathCopied(t *testing.T, d *xmltree.Document) *xmltree.Document {
	t.Helper()
	first := d.Snapshot()
	auction := Eval(d, MustParse("/site/open_auctions/open_auction[2]"))[0]
	x, err := d.ApplyInsert(auction, xmltree.NewNode(xmltree.Element, "x", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyDelete(x); err != nil {
		t.Fatal(err)
	}
	img := d.Snapshot()
	if img == first || img.CopiedNodes() != 4 || img.String() != d.String() { // 3 spine nodes + x
		t.Fatalf("image copied %d nodes: %s", img.CopiedNodes(), img)
	}
	return img
}

func TestEvalSiblingAxes(t *testing.T) {
	t.Run("parsed", func(t *testing.T) { testEvalSiblingAxes(t, doc(t)) })
	t.Run("image", func(t *testing.T) { testEvalSiblingAxes(t, pathCopied(t, doc(t))) })
}

func testEvalSiblingAxes(t *testing.T, d *xmltree.Document) {
	cases := []struct {
		expr string
		want int
	}{
		{"/site/people/following-sibling::regions", 1},
		{"/site/people/following-sibling::*", 2},
		{"/site/open_auctions/preceding-sibling::*", 2},
		{"//bidder/following-sibling::bidder", 1},
		{"//bidder/following-sibling::reserve", 1},
		{"//reserve/preceding-sibling::bidder", 1},
		{"//person/following-sibling::person", 2}, // person1, person2 (deduped)
		{"/site/following-sibling::*", 0},         // root has no siblings
	}
	for _, c := range cases {
		if got := evalCount(t, d, c.expr); got != c.want {
			t.Errorf("%s: got %d want %d", c.expr, got, c.want)
		}
	}
	// preceding-sibling groups are nearest-first: [1] is the closest one.
	got := Eval(d, MustParse("/site/open_auctions/preceding-sibling::*[1]"))
	if len(got) != 1 || got[0].Label() != "regions" {
		t.Fatalf("nearest preceding sibling = %v", labels(got))
	}
}

func TestEvalPositional(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		want int
	}{
		{"/site/people/person[1]", 1},
		{"/site/people/person[3]", 1},
		{"/site/people/person[4]", 0},
		{"/site/people/person[last()]", 1},
		// A descendant step forms one match group per context node; for a
		// leading "//" the context is the virtual document node, so the
		// group spans the whole document (unlike standard abbreviated XPath,
		// where //x[1] re-groups per parent).
		{"//bidder[1]", 1},
		{"//bidder[last()]", 1},
		{"//open_auction/bidder[1]", 2},      // first bidder of each auction
		{"//open_auction/bidder[last()]", 2}, // last bidder of each auction
		{"//person[phone][1]", 1},
		{"//person[homepage][1]", 1},
	}
	for _, c := range cases {
		if got := evalCount(t, d, c.expr); got != c.want {
			t.Errorf("%s: got %d want %d", c.expr, got, c.want)
		}
	}
	// Positions re-index after earlier predicates: person[homepage][1] is
	// Bob (the first person having a homepage), not person0.
	got := Eval(d, MustParse("//person[homepage][1]/@id"))
	if len(got) != 1 || got[0].Value != "person1" {
		t.Fatalf("person[homepage][1] = %v", got)
	}
	last := Eval(d, MustParse("/site/people/person[last()]/@id"))
	if len(last) != 1 || last[0].Value != "person2" {
		t.Fatalf("person[last()] = %v", last)
	}
}

func TestEvalFunctions(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr string
		want int
	}{
		{"//open_auction[count(bidder)=2]", 1},
		{"//open_auction[count(bidder)=1]", 1},
		{"//open_auction[count(bidder)>=1]", 2},
		{"//open_auction[count(bidder)>2]", 0},
		{"//open_auction[count(bidder)!=2]", 1},
		{"//person[count(profile/age)<1]", 2},
		{"//person[contains(name,'n')]", 1}, // Ann
		{"//person[contains(@id,'person')]", 3},
		{"//person[starts-with(name,'B')]", 1}, // Bob
		{"//person[starts-with(name,'n')]", 0},
		{"//item[contains(description,'d0')]", 1},
	}
	for _, c := range cases {
		if got := evalCount(t, d, c.expr); got != c.want {
			t.Errorf("%s: got %d want %d", c.expr, got, c.want)
		}
	}
}

func TestParseWidenedGrammarErrors(t *testing.T) {
	bad := []string{
		"//following-sibling::a",   // sibling axis after //
		"/a//preceding-sibling::b", // ditto
		"/a[count(b)]",             // count without comparison
		"/a[count(b)=]",            // missing integer
		"/a[contains(b)]",          // missing literal argument
		"/a[starts-with(b,'x'",     // unterminated
		"/a[0x]",                   // digits then name runes: path "0x" is fine, keep it valid? no — 0x is a name
	}
	for _, e := range bad[:6] {
		if _, err := Parse(e); err == nil {
			t.Errorf("Parse(%q) should fail", e)
		}
	}
	// Digits followed by name runes parse as an element name, not a position.
	p, err := Parse("/a[0x]")
	if err != nil {
		t.Fatalf("Parse(/a[0x]): %v", err)
	}
	if _, ok := p.Steps[0].Preds[0].(ExistsExpr); !ok {
		t.Fatalf("/a[0x] predicate = %T, want ExistsExpr", p.Steps[0].Preds[0])
	}
}

func TestWidenedRoundTrip(t *testing.T) {
	exprs := []string{
		"/site/people/following-sibling::regions",
		"/a/preceding-sibling::*[1]",
		"/site/people/person[2]",
		"//bidder[last()]",
		"//open_auction[count(bidder)>=2]",
		"//person[contains(name,\"n\")]",
		"//person[starts-with(@id,\"p\")]",
		"//a[count(//b)!=0]",
		"//a[contains(b/c,\"x\") and 1]",
	}
	for _, e := range exprs {
		p, err := Parse(e)
		if err != nil {
			t.Fatalf("Parse(%q): %v", e, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", e, p.String(), err)
		}
		if p2.String() != p.String() {
			t.Fatalf("unstable print: %q vs %q", p.String(), p2.String())
		}
	}
}

func TestSiblingAxesNotDewey(t *testing.T) {
	if _, ok := MustParse("/a/following-sibling::b").DeweySteps(); ok {
		t.Fatal("sibling paths must not convert to Dewey label paths")
	}
	if MustParse("/a/preceding-sibling::b").IsLinear() != true {
		t.Fatal("sibling step without predicates is still linear")
	}
}

func TestNumberLiteral(t *testing.T) {
	d := doc(t)
	p, err := Parse("//open_auction[reserve=10]")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Eval(d, p)); got != 1 {
		t.Fatalf("numeric literal match: %d", got)
	}
	if !strings.Contains(p.String(), "reserve=\"10\"") {
		t.Fatalf("String() = %q", p.String())
	}
}
