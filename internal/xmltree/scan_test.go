package xmltree

import (
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"xivm/internal/dewey"
)

// The scanner's reference: the encoding/xml token loops the parsers ran on
// before the scanner, with the scanner's two deliberate differences applied
// to their output — adjacent character data is one text node, and a forest
// drops namespace declarations as a document does.

// refText gathers a run of character data, which a start or end tag ends.
type refText struct {
	b       strings.Builder
	pending bool
}

func (r *refText) add(data xml.CharData) { r.b.Write(data); r.pending = true }

// take returns the run, if it is not white space only, and starts the next.
func (r *refText) take() (string, bool) {
	s := r.b.String()
	r.b.Reset()
	pending := r.pending
	r.pending = false
	return s, pending && strings.TrimSpace(s) != ""
}

func isNamespaceDecl(a xml.Attr) bool { return a.Name.Space == "xmlns" || a.Name.Local == "xmlns" }

// refParse is Parse's reference.
func refParse(s string) (*Document, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var root *Node
	type open struct {
		n    *Node
		kids int
	}
	var stack []open
	push := func(kind Kind, label, value string) (*Node, error) {
		c := dewey.Code(label)
		n := newNode(kind, c, label, value)
		if len(stack) == 0 {
			if root != nil {
				return nil, errors.New("multiple root elements")
			}
			n.SetID(dewey.ID{}.ChildCode(c, label, dewey.Ord{dewey.Gap}))
			root = n
			return n, nil
		}
		parent := &stack[len(stack)-1]
		n.SetID(parent.n.ID().ChildCode(c, label, dewey.OrdAt(parent.kids)))
		parent.kids++
		parent.n.AppendChild(n)
		return n, nil
	}
	var text refText
	flush := func() {
		if t, ok := text.take(); ok && len(stack) > 0 {
			push(Text, TextLabel, t)
		}
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			n, err := push(Element, t.Name.Local, "")
			if err != nil {
				return nil, err
			}
			stack = append(stack, open{n: n})
			for _, a := range t.Attr {
				if !isNamespaceDecl(a) {
					push(Attribute, "@"+a.Name.Local, a.Value)
				}
			}
		case xml.EndElement:
			flush()
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text.add(t)
			}
		}
	}
	if root == nil {
		return nil, errors.New("empty document")
	}
	return NewDocument(root), nil
}

// refParseForest is ParseForest's reference.
func refParseForest(s string) ([]*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var tops, stack []*Node
	add := func(n *Node) {
		if len(stack) == 0 {
			tops = append(tops, n)
			return
		}
		stack[len(stack)-1].AppendChild(n)
	}
	var text refText
	flush := func() {
		if t, ok := text.take(); ok && len(stack) > 0 {
			add(newNode(Text, textCode, TextLabel, t))
		}
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			n := NewNode(Element, t.Name.Local, "")
			add(n)
			stack = append(stack, n)
			for _, a := range t.Attr {
				if !isNamespaceDecl(a) {
					add(NewNode(Attribute, "@"+a.Name.Local, a.Value))
				}
			}
		case xml.EndElement:
			flush()
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text.add(t)
			}
		}
	}
	if len(tops) == 0 {
		return nil, errors.New("empty forest")
	}
	return tops, nil
}

// sameTree reports how two trees first differ — kind, label, value, ID or
// shape, node by node in document order — or "".
func sameTree(a, b *Node) string {
	if a.Kind != b.Kind || a.Label() != b.Label() || a.Value() != b.Value() || a.ID().Key() != b.ID().Key() {
		return "node " + a.Label() + " " + a.ID().String() + " against " + b.Label() + " " + b.ID().String()
	}
	ka, kb := a.Kids(), b.Kids()
	for {
		na, nb := ka.Next(), kb.Next()
		if na != nb {
			return "children of " + a.Label() + " " + a.ID().String()
		}
		if !na {
			return ""
		}
		if d := sameTree(ka.Node(), kb.Node()); d != "" {
			return d
		}
	}
}

// rejections are inputs encoding/xml accepts and XML forbids, which the
// scanner refuses. Each recognizes its case at the offset the scanner's
// error names, by a check that shares no code with the scanner.
type rejection struct {
	name string
	is   func(src string, at int) bool
}

var rejections = []rejection{
	// Namespaces in XML: a prefixed name's local part is itself a name. The
	// local part is the label, and one that is not a name serializes as a
	// tag nothing reads back: <p:0/> as <0/>.
	{"local part not a name", func(src string, at int) bool {
		name := src[at:]
		if end := strings.IndexFunc(name, func(r rune) bool {
			return r < utf8.RuneSelf && !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("_:.-", r)
		}); end >= 0 {
			name = name[:end]
		}
		prefix, local, ok := strings.Cut(name, ":")
		if !ok || prefix == "" || local == "" {
			return false
		}
		_, err := xml.NewDecoder(strings.NewReader("<" + local + "/>")).Token()
		return err != nil
	}},
}

// agree fails t unless the scanner's verdict on src (err) and the
// reference's (refErr) agree — both refuse it, both accept it, or the
// scanner refuses it as one of the rejections — and reports whether both
// accepted it.
func agree(t *testing.T, what, src string, err, refErr error) bool {
	t.Helper()
	if err == nil {
		if refErr != nil {
			t.Fatalf("%s %q: the scanner accepts it, encoding/xml says %v", what, src, refErr)
		}
		return true
	}
	var syn *SyntaxError
	if !errors.As(err, &syn) || syn.Offset < 0 || syn.Offset > len(src) || syn.Line != 1+strings.Count(src[:syn.Offset], "\n") {
		t.Fatalf("%s %q: error %v is not a SyntaxError placed in the input", what, src, err)
	}
	if refErr == nil && rejected(src, syn.Offset) == "" {
		t.Fatalf("%s %q: the scanner says %v, encoding/xml accepts it", what, src, err)
	}
	return false
}

// rejected returns the name of the rejection src is at offset at, or "".
func rejected(src string, at int) string {
	for _, r := range rejections {
		if r.is(src, at) {
			return r.name
		}
	}
	return ""
}

// checkAgainstReference fails t unless the scanner and the reference agree
// on src, read as a document and as a forest.
func checkAgainstReference(t *testing.T, src string) {
	t.Helper()
	got, err := ParseString(src)
	want, refErr := refParse(src)
	if agree(t, "document", src, err, refErr) {
		if d := sameTree(got.Root, want.Root); d != "" {
			t.Fatalf("document %q: %s", src, d)
		}
		if got.String() != want.String() || string(got.EncodeOrds()) != string(want.EncodeOrds()) || got.Size() != want.Size() {
			t.Fatalf("document %q: %q (%d nodes), encoding/xml %q (%d nodes)", src, got, got.Size(), want, want.Size())
		}
	}
	forest, err := ParseForest(src)
	wantForest, refErr := refParseForest(src)
	if !agree(t, "forest", src, err, refErr) {
		return
	}
	if len(forest) != len(wantForest) {
		t.Fatalf("forest %q: %d trees, encoding/xml %d", src, len(forest), len(wantForest))
	}
	for i := range forest {
		if d := sameTree(forest[i], wantForest[i]); d != "" {
			t.Fatalf("forest %q, tree %d: %s", src, i, d)
		}
	}
}

// scanSeeds are inputs at the edges of what the scanner accepts.
var scanSeeds = []string{
	`<a><c><b>hello</b></c><f><b x="1">world</b></f></a>`,
	`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a [<!ENTITY e "x"> <!-- c --> <!ELEMENT a ANY>]><a/>`,
	`<?xml version="1.1"?><a/>`, `<?xml version='1.0' encoding='latin1'?><a/>`, `<?xml xencoding="utf-16"?><a/>`,
	`<a>x<!--c-->y</a>`, `<a>x<![CDATA[<y>]]></a>`, `<a>x<?pi data?>y</a>`, `<a> <!--c--> </a>`, `<a>x<!--c--> </a>`,
	`<a x='1' y="'" z='"'>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xD800;</a>`,
	"<a>l1\r\nl2\rl3\r\r\n</a>", "<a x=\"\r\n\t\"/>", "<a><![CDATA[a\r\nb]]>\r</a>",
	"<a>x<!--c-->&amp;<?p?><![CDATA[y]]>z\r\n<!--c--><![CDATA[w\r]]>q<b/>&lt;<!--c-->r</a>",
	`<a>&#0;</a>`, `<a>&#xFFFE;</a>`, `<a>&#x110000;</a>`, `<a>&#X41;</a>`, `<a>&#;</a>`, `<a>&nbsp;</a>`, `<a>&lt</a>`,
	"<a>\xff</a>", "<a>\x01</a>", "<a x=\"\xef\xbf\xbe\"/>", "\xef\xbb\xbf<a/>",
	`<a>]]></a>`, `<a x="]]>"/>`, `<a x="<"/>`, `<a x=1/>`, `<a x/>`, `<a x="1"y="2"/>`, `<a x="1" x="2"/>`,
	`<p:a xmlns:p="u" xmlns="v" p:x="1" xmlns:="w" q:xmlns="z"></p:a>`, `<p:a></q:a>`, `<a:b:c/>`, `<:a/>`, `<a:/>`,
	"<\u00e9l\u00e8ve/>", "<\u0300a/>", "<a\u0300/>", "<a\u00b7/>", "<\u3005/>", "<a>\u00a0\u2003</a>",
	`<a/><b/>`, `<a/>text`, `text<a/>`, `<a></b>`, `</a>`, `<a>`, ``, `   `, `<!-- only -->`, `<a/><!--c---->`,
	`<a><!-- x -- y --></a>`, `<a><!---></a>`, `<!DOCTYPE a<!-- > -->><a/>`, `<!DOCTYPE a ">" '>'><a/>`, `<!D<>><a/>`,
	`<a><![CDATA[x]]]></a>`, `<a><![CDAT[x]]></a>`, `<a><!x></a>`, `<?a:b:c?><a/>`, `<?1?><a/>`, `<? x?><a/>`,
	`<a></a >`, `<a></ a>`, `< a/>`, `<A:0/>`, `<a p:-x="1"/>`, `<p:a.b/>`, `<a / >`, `<a/ >`, `<a>&amp;lt;</a>`, `<a x="&#9;&#10;&#13;"/>`,
}

// FuzzParseMatchesEncodingXML holds the scanner to its reference: on any
// input, read as a document and as a forest, both refuse it or both build
// the same trees — String, EncodeOrds, Size and every node's kind, label,
// value and ID.
func FuzzParseMatchesEncodingXML(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add(s)
	}
	f.Fuzz(checkAgainstReference)
}

// FuzzParseRoundTrip: any document the scanner accepts reparses from its
// serialization to the same serialization and ordinal stream — what
// restoring a checkpoint (doc.xml plus doc.ords) relies on — and the
// original's ordinal stream, applied to the reparse as a restore does
// (ApplyOrds), gives every node the original's key, byte for byte. Every
// tree either parse builds, and every tree of the input parsed as a forest,
// keeps the node's payload layout (CheckPayload).
func FuzzParseRoundTrip(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add(s)
	}
	f.Add(chainDoc()) // a refused label, mixed content and a wide list
	f.Fuzz(func(t *testing.T, src string) {
		if forest, err := ParseForest(src); err == nil {
			for _, tree := range forest {
				if err := CheckPayload(tree); err != nil {
					t.Fatalf("%q as a forest: %v", src, err)
				}
			}
		}
		d, err := ParseString(src)
		if err != nil {
			return
		}
		again, err := ParseString(d.String())
		if err != nil {
			t.Fatalf("%q serializes to %q, which does not parse: %v", src, d.String(), err)
		}
		if again.String() != d.String() || string(again.EncodeOrds()) != string(d.EncodeOrds()) {
			t.Fatalf("%q serializes to %q, which reparses to %q", src, d.String(), again.String())
		}
		var keys []string
		Walk(d.Root, func(n *Node) bool { keys = append(keys, n.ID().Key()); return true })
		if err := again.ApplyOrds(d.EncodeOrds()); err != nil {
			t.Fatalf("%q: the reparse refuses the original's ordinals: %v", src, err)
		}
		i := 0
		Walk(again.Root, func(n *Node) bool {
			if n.ID().Key() != keys[i] {
				t.Fatalf("%q: node %d restored as %v, parsed as %v", src, i, n.ID(), dewey.FromKey(keys[i]))
			}
			i++
			return true
		})
		for _, doc := range []*Document{d, again} {
			if err := CheckPayload(doc.Root); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
	})
}

// TestSplitTextIsOneNode: text that a comment, a PI or a CDATA section
// splits is one text node, as it is once serialized and reparsed.
func TestSplitTextIsOneNode(t *testing.T) {
	for src, want := range map[string]string{
		`<site><a>x<!--c-->y</a></site>`:        "xy",
		`<site><a>x<![CDATA[<y>]]></a></site>`:  "x<y>",
		`<site><a>x<?pi?>y<!--c--> </a></site>`: "xy ",
	} {
		d := mustParse(t, src)
		a := d.Root.ElementChildren()[0]
		if a.NumChildren() != 1 || a.kids()[0].Value() != want {
			t.Fatalf("%s: %d children, first %q; want one text node %q", src, a.NumChildren(), a.kids()[0].Value(), want)
		}
	}
}

// TestForestPrefixEndsWhereTheForestDoes: ParseForestPrefix stops after the
// last tree that white space and a '<' continue, whatever a quoted value
// holds, and what it read is what ParseForest reads from its prefix.
func TestForestPrefixEndsWhereTheForestDoes(t *testing.T) {
	for _, tc := range []struct {
		src, forest string
	}{
		{`<a/> into /x`, `<a/>`},
		{`<a x="1>0"/> <b>t</b>  into /x`, `<a x="1>0"/> <b>t</b>`},
		{`<a/><!--c--> <b/></c>`, `<a/><!--c--> <b/>`},
		{"<a>x</a>\n", `<a>x</a>`},
		{`<a/>text<b/>`, `<a/>`},
	} {
		forest, n, err := ParseForestPrefix(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if got := tc.src[:n]; got != tc.forest {
			t.Fatalf("%q: forest %q, want %q", tc.src, got, tc.forest)
		}
		whole, err := ParseForest(tc.forest)
		if err != nil || len(whole) != len(forest) {
			t.Fatalf("%q: ParseForest of the prefix gives %d trees, %v; the prefix %d", tc.src, len(whole), err, len(forest))
		}
		for i := range whole {
			if whole[i].Content() != forest[i].Content() {
				t.Fatalf("%q: tree %d is %s, ParseForest reads %s", tc.src, i, forest[i].Content(), whole[i].Content())
			}
		}
	}
	for _, bad := range []string{`</a>`, ` x`, `<a>`, `<!--c--> <`} {
		if _, _, err := ParseForestPrefix(bad); err == nil {
			t.Fatalf("%q: no error", bad)
		}
	}
}

// TestSyntaxErrorPlacesTheFault: a refused input's error is a *SyntaxError
// naming the byte and the line where the scanner stopped.
func TestSyntaxErrorPlacesTheFault(t *testing.T) {
	for _, tc := range []struct {
		src          string
		offset, line int
	}{
		{"<a>\n<b>\n</c></a>", 8, 3},
		{"<a>\n  <b x=1/></a>", 11, 2},
		{"<a>", 3, 1},
		{"<a/>\n<b/>", 5, 2},
		{"<a>&bogus;</a>", 3, 1},
	} {
		_, err := ParseString(tc.src)
		var syn *SyntaxError
		if !errors.As(err, &syn) || syn.Offset != tc.offset || syn.Line != tc.line {
			t.Errorf("%q: error %v, want a SyntaxError at byte %d, line %d", tc.src, err, tc.offset, tc.line)
		}
	}
}

// TestValuesAreNotSubstringsOfTheInput: no value, label or ID a parse
// leaves in a tree points into the input, which it would pin whole.
func TestValuesAreNotSubstringsOfTheInput(t *testing.T) {
	src := `<site><person id="p1" note="a&gt;b"><name>Ann</name>` + strings.Repeat("<x>y</x>", 70) + `</person></site>`
	d := mustParse(t, src)
	forest, err := ParseForest(src)
	if err != nil {
		t.Fatal(err)
	}
	inside := func(s string) bool {
		if s == "" {
			return false
		}
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return p >= lo && p < lo+uintptr(len(src))
	}
	for _, root := range append([]*Node{d.Root}, forest...) {
		Walk(root, func(n *Node) bool {
			if inside(n.Value()) || inside(n.Label()) || inside(n.ID().Key()) {
				t.Fatalf("node %s %q shares the input's bytes", n.Label(), n.Value())
			}
			return true
		})
	}
}
