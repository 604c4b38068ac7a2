package update

import (
	"errors"
	"strings"
	"testing"

	"xivm/internal/xmltree"
)

// roundTripCases covers every statement kind and the syntactic variants
// that canonicalize away (for-bound insertion, let-prefixed paths).
var roundTripCases = []struct {
	name string
	src  string
	want string // canonical form; "" means src is already canonical
}{
	{"delete", `delete /site/people/person`, ""},
	{"delete-descendant", `delete //c//b`, ""},
	{"delete-wildcard", `delete /site/regions/*/item`, ""},
	{"delete-attr-pred", `delete //person[@id]`, ""},
	{"delete-text-pred", `delete //name[text()="x"]`, ""},
	{"delete-and-or", `delete /site/people/person[address and (phone or homepage)]`, ""},
	{"insert-forest", `insert <a><b/><b><c/></b></a> into /site/people`, ""},
	{"insert-two-trees", `insert <a/><b/> into /site`, ""},
	{"insert-attrs", `insert <person id="p9"><name>N</name></person> into /site/people`, ""},
	{"insert-text", `insert <phone>+33 555 0199</phone> into //person`, ""},
	{"insert-escapes", `insert <t>a &amp; b &lt; c</t> into /site`, ""},
	{"insert-copyof", `insert //a into //b`, ""},
	{"for-insert", `for $x in /site/people/person insert <phone>1</phone>`,
		`insert <phone>1</phone> into /site/people/person`},
	{"for-insert-into", `for $x in //p insert <q/> into $x`, `insert <q/> into //p`},
	{"let-delete", `let $c := doc("a") delete $c//b`, `delete //b`},
	{"replace", `replace //name with <name>x</name>`, ""},
	{"replace-forest", `replace /a/b with <b><c/></b><b/>`, ""},
	{"replace-pred", `replace //person[homepage]/homepage with <homepage>u</homepage>`, ""},
}

// TestFormatRoundTrip: Format output reparses to an equivalent statement,
// and formatting is a fixpoint (Format ∘ Parse ∘ Format = Format).
func TestFormatRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			got := Format(st)
			want := tc.want
			if want == "" {
				want = tc.src
			}
			if got != want {
				t.Fatalf("Format = %q, want %q", got, want)
			}
			back, err := Parse(got)
			if err != nil {
				t.Fatalf("canonical form does not reparse: %v", err)
			}
			if !Equivalent(st, back) {
				t.Fatalf("reparsed statement differs:\n  src  %+v\n  back %+v", st, back)
			}
			if again := Format(back); again != got {
				t.Fatalf("Format not a fixpoint: %q then %q", got, again)
			}
		})
	}
}

func TestEquivalentDistinguishes(t *testing.T) {
	parse := func(s string) *Statement {
		st, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := parse(`insert <a/> into /site`)
	for _, other := range []string{
		`delete /site`,                  // kind differs
		`insert <a/> into /site/people`, // target differs
		`insert <b/> into /site`,        // forest differs
		`insert //a into /site`,         // copy-of vs forest
	} {
		if Equivalent(base, parse(other)) {
			t.Fatalf("Equivalent(%q, %q) = true", base.Source, other)
		}
	}
	a := parse(`insert //x into /site`)
	b := parse(`insert //y into /site`)
	if Equivalent(a, b) {
		t.Fatal("copy-of paths not compared")
	}
}

// TestParseErrorPaths pins the parser's rejection paths: each input must
// fail, and the error must carry the update: prefix with a hint of the
// cause.
func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		src  string
		hint string // substring the error must contain
	}{
		{``, "expected delete, insert, replace, for, or let"},
		{`upsert //a`, "expected delete, insert, replace, for, or let"},
		{`delete`, "expected path"},
		{`delete site`, "expected path"},
		{`insert <a/>`, "expected 'into'"},
		{`insert <a/> onto /site`, "expected 'into'"},
		{`insert <a> into /site`, "element <a> is not closed"},
		{`insert <a into /site`, "expected '=' after attribute into"},
		{`insert <a x="1"> into /site`, "element <a> is not closed"},
		{`insert <a/></a> into /site`, "expected 'into'"},
		{`replace //a`, "expected 'with'"},
		{`replace //a with`, "expected XML fragment"},
		{`replace //a with b`, "expected XML fragment"},
		{`for $x insert <a/>`, "expected 'in'"},
		{`for x in //a insert <b/>`, "expected variable"},
		{`for $ in //a insert <b/>`, "empty variable name"},
		{`for $x in //a delete //b`, "expected 'insert'"},
		{`for $x in //a insert <b/> into $y`, "does not match loop variable"},
		{`let $c doc("a") delete $c//a`, "expected := in let clause"},
		{`let $c := dock("a") delete $c//a`, "expected doc(...) in let clause"},
		{`let $c := doc(a) delete $c//a`, "expected string literal"},
		{`let $c := doc("a delete $c//a`, "unterminated string literal"},
		{`let $c := doc("a" delete $c//a`, "expected ) after doc uri"},
		{`let $c := doc("a") delete $d//a`, "unknown variable"},
		{`delete //a extra`, "trailing input"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.hint)
			continue
		}
		if !strings.HasPrefix(err.Error(), "update:") && !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("Parse(%q) error %q, want hint %q", tc.src, err, tc.hint)
		}
		if !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("Parse(%q) error %q missing hint %q", tc.src, err, tc.hint)
		}
	}
}

// TestFragmentErrorPlacesTheFaultInTheStatement: a fragment the scanner
// refuses is a *xmltree.SyntaxError whose byte and line count from the
// start of the statement, not of the fragment.
func TestFragmentErrorPlacesTheFaultInTheStatement(t *testing.T) {
	for _, tc := range []struct {
		src          string
		offset, line int
	}{
		{"insert <a>&bogus;</a> into /site", 10, 1},
		{"for $x in /site/people\n  insert <b>\n<c x=1/></b>", 41, 3},
		{"replace /site/a with\n<a>", 24, 2},
	} {
		_, err := Parse(tc.src)
		var syn *xmltree.SyntaxError
		if !errors.As(err, &syn) || syn.Offset != tc.offset || syn.Line != tc.line {
			t.Errorf("%q: error %v, want a SyntaxError at byte %d, line %d", tc.src, err, tc.offset, tc.line)
		}
	}
}

// FuzzFormatRoundTrip: any statement the parser accepts must format to a
// canonical text that reparses to an equivalent statement, and
// AppendFormat appends exactly that text, after whatever dst held.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, tc := range roundTripCases {
		f.Add(tc.src)
	}
	for _, src := range []string{
		// A '>' in an attribute value, which Format writes as it is.
		`insert <person id="p9" note="1&gt;0"/> into /site/people`,
		`insert <a x='>'/> <b y="<!--"/> into /site`,
		`insert <p:a xmlns:p="urn:x" xmlns="urn:y" p:k="v"/> into /site`,
		`insert <a>x<!--c-->y<![CDATA[<z>]]></a><!--between--> <b/> into /site`,
		"insert <a x=\"&#13;\">&#13;\r\n</a> into /site",
		`delete //person[count(watches/watch)>=2][starts-with(name,"A") or contains(.//text(),'x')]`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		canon := Format(st)
		if got := string(AppendFormat(nil, st)); got != canon {
			t.Fatalf("AppendFormat(nil) = %q, Format = %q", got, canon)
		}
		if got := string(AppendFormat([]byte("s/x"), st)); got != "s/x"+canon {
			t.Fatalf("AppendFormat after a prefix = %q, want the prefix and %q", got, canon)
		}
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Format(%q) = %q does not reparse: %v", src, canon, err)
		}
		if !Equivalent(st, back) {
			t.Fatalf("round trip of %q via %q lost information", src, canon)
		}
		if again := Format(back); again != canon {
			t.Fatalf("Format not a fixpoint: %q then %q", canon, again)
		}
	})
}

// Equivalent reports whether two statements denote the same update: same
// kind, same target path, same copy-source, and forests serializing to the
// same XML. Source text is ignored — `for $x in q insert F` and
// `insert F into q` are equivalent.
func Equivalent(a, b *Statement) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Target.String() != b.Target.String() {
		return false
	}
	if (a.CopyOf == nil) != (b.CopyOf == nil) {
		return false
	}
	if a.CopyOf != nil && a.CopyOf.String() != b.CopyOf.String() {
		return false
	}
	return ForestString(a.Forest) == ForestString(b.Forest)
}

// Format renders the statement in canonical form.
func Format(st *Statement) string { return string(AppendFormat(nil, st)) }
