package xpath

import "testing"

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

var rendered string

// TestPathStringAllocatesItsResult: String renders a path into scratch on
// its stack, so it allocates the string it returns and nothing else — the
// renderer's dst stays off the heap through the recursion of paths inside
// predicates inside paths.
func TestPathStringAllocatesItsResult(t *testing.T) {
	const q = `//open_auction[bidder/increase="4.50" and (count(bidder)>=2 or starts-with(@id,"a"))]//initial`
	p, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { rendered = p.String() }); n != 1 || rendered != q {
		t.Fatalf("String allocates %v times for %q, want once", n, rendered)
	}
}
