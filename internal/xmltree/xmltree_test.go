package xmltree

import (
	"slices"
	"strings"
	"testing"

	"xivm/internal/dewey"
)

const sampleDoc = `<a><c><b>hello</b></c><f><b x="1">world</b></f></a>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParseBasicShape(t *testing.T) {
	d := mustParse(t, sampleDoc)
	if d.Root.Label() != "a" {
		t.Fatalf("root label %q", d.Root.Label())
	}
	kids := d.Root.ElementChildren()
	if len(kids) != 2 || kids[0].Label() != "c" || kids[1].Label() != "f" {
		t.Fatalf("children %v", kids)
	}
	b := kids[1].ElementChildren()[0]
	if b.Label() != "b" || b.StringValue() != "world" {
		t.Fatalf("b = %q %q", b.Label(), b.StringValue())
	}
	if a := b.Attr("x"); a == nil || a.Value() != "1" {
		t.Fatalf("attr x = %v", a)
	}
	if b.Attr("missing") != nil {
		t.Fatal("unexpected attribute")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a></a><b></b>", "<a>", "text only"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestIDsEncodeDocumentOrder(t *testing.T) {
	d := mustParse(t, sampleDoc)
	var order []*Node
	Walk(d.Root, func(n *Node) bool { order = append(order, n); return true })
	for i := 1; i < len(order); i++ {
		if order[i-1].ID().Compare(order[i].ID()) >= 0 {
			t.Fatalf("node %d (%v) not before node %d (%v)", i-1, order[i-1].ID(), i, order[i].ID())
		}
	}
}

func TestNodeByID(t *testing.T) {
	d := mustParse(t, sampleDoc)
	Walk(d.Root, func(n *Node) bool {
		if got := d.NodeByID(n.ID()); got != n {
			t.Fatalf("NodeByID(%v) = %v", n.ID(), got)
		}
		return true
	})
	for _, id := range []dewey.ID{
		{},
		dewey.NewRoot("other"),
		d.Root.ID().Child("nope", dewey.OrdAt(0)),
		d.Root.kids()[0].ID().Child(d.Root.kids()[0].Label(), dewey.OrdAt(99)),
	} {
		if got := d.NodeByID(id); got != nil {
			t.Fatalf("NodeByID(%v) = %v for an ID the document never issued", id, got.ID())
		}
	}
}

// TestNodeByIDFollowsTheTree: the tree is the only ID index, so an ID
// resolves to whatever node sits at its steps now. Deleting a last child
// frees its ordinal; the next insertion under that parent is handed the same
// one, and with the same label the same ID — which must then resolve to the
// new node and never to the detached one.
func TestNodeByIDFollowsTheTree(t *testing.T) {
	d := mustParse(t, `<a><b/><c><x/></c></a>`)
	c := d.Root.kids()[1]
	x := c.kids()[0]
	if _, err := d.ApplyDelete(c); err != nil {
		t.Fatal(err)
	}
	if d.NodeByID(c.ID()) != nil || d.NodeByID(x.ID()) != nil || d.Size() != 2 {
		t.Fatalf("detached nodes still resolve (size %d)", d.Size())
	}
	c2, err := d.ApplyInsert(d.Root, NewNode(Element, "c", ""))
	if err != nil {
		t.Fatal(err)
	}
	if !c2.ID().Equal(c.ID()) {
		t.Fatalf("freed ID %v not reassigned: got %v", c.ID(), c2.ID())
	}
	if got := d.NodeByID(c.ID()); got != c2 || d.NodeByID(x.ID()) != nil || d.Size() != 3 {
		t.Fatalf("NodeByID(%v) = %p, want the new node %p (size %d)", c.ID(), got, c2, d.Size())
	}
}

// TestDeleteBatchParentInsideVictim: one batch names v and a node x whose
// parent p sits inside v, on a published document and with v named twice.
// p's child list is filtered while p is still attached — deepest parent
// first — and p leaves the document with v; both roots come back, v as it
// now stands (without x), and the epoch published before still holds all
// of it.
func TestDeleteBatchParentInsideVictim(t *testing.T) {
	for _, order := range [][]int{{0, 1, 0}, {1, 0, 0}} {
		d := mustParse(t, `<a><v><p><x/><y/></p></v><q><z/></q></a>`)
		before := d.Snapshot()
		v := d.Root.kids()[0]
		p := v.kids()[0]
		x, y := p.kids()[0], p.kids()[1]
		victims := []*Node{v, x}
		var batch []*Node
		for _, i := range order {
			batch = append(batch, victims[i])
		}
		out, _, err := d.ApplyDeleteBatch(batch)
		if err != nil || len(out) != 2 {
			t.Fatalf("batch: %v, %d roots", err, len(out))
		}
		for i, want := range []string{`<v><p><y/></p></v>`, `<x/>`} {
			if got := out[slices.Index(order, i)]; got.Content() != want {
				t.Fatalf("detached root %d is %s, want %s", i, got.Content(), want)
			}
		}
		for _, n := range []*Node{v, p, x, y} {
			if d.NodeByID(n.ID()) != nil {
				t.Fatalf("NodeByID(%v) resolves after its subtree left the document", n.ID())
			}
		}
		if img := d.Snapshot(); img.String() != `<a><q><z/></q></a>` || d.Size() != 3 || img.Size() != 3 {
			t.Fatalf("epoch %s (sizes %d, %d)", img, d.Size(), img.Size())
		}
		if got := before.String(); got != `<a><v><p><x/><y/></p></v><q><z/></q></a>` || before.NodeByID(x.ID()) != x {
			t.Fatalf("the batch wrote into the epoch published before it: %s", got)
		}
		Walk(d.Root, func(n *Node) bool {
			if d.NodeByID(n.ID()) != n {
				t.Fatalf("NodeByID(%v) lost an attached node", n.ID())
			}
			return true
		})
	}
}

func TestStringValueConcatenation(t *testing.T) {
	d := mustParse(t, `<r><x>foo</x><y a="skip">bar<z>baz</z></y></r>`)
	if got := d.Root.StringValue(); got != "foobarbaz" {
		t.Fatalf("StringValue = %q", got)
	}
}

func TestContentSerialization(t *testing.T) {
	d := mustParse(t, sampleDoc)
	f := d.Root.ElementChildren()[1]
	want := `<f><b x="1">world</b></f>`
	if got := f.Content(); got != want {
		t.Fatalf("Content = %q want %q", got, want)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		sampleDoc,
		`<r/>`,
		`<r a="1" b="two"><c/>text<d>x &amp; y</d></r>`,
	}
	for _, s := range docs {
		d := mustParse(t, s)
		out := d.String()
		d2 := mustParse(t, out)
		if d2.String() != out {
			t.Fatalf("serialize not stable: %q -> %q", out, d2.String())
		}
	}
}

func TestEscaping(t *testing.T) {
	d := mustParse(t, `<r a="&quot;&lt;&amp;">x &lt; y &amp; z</r>`)
	out := d.String()
	if !strings.Contains(out, `a="&quot;&lt;&amp;"`) {
		t.Fatalf("attr escaping lost: %q", out)
	}
	if !strings.Contains(out, "x &lt; y &amp; z") {
		t.Fatalf("text escaping lost: %q", out)
	}
}

func TestApplyInsertAssignsIDs(t *testing.T) {
	d := mustParse(t, sampleDoc)
	forest, err := ParseForest(`<b><d/></b>`)
	if err != nil {
		t.Fatal(err)
	}
	target := d.Root.ElementChildren()[0] // c
	before := d.Size()
	oldIDs := map[string]bool{}
	Walk(d.Root, func(n *Node) bool { oldIDs[n.ID().Key()] = true; return true })

	cp, err := d.ApplyInsert(target, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	if ParentIn(d.Root, cp) != target || target.kids()[len(target.kids())-1] != cp {
		t.Fatal("not appended as last child")
	}
	if !target.ID().IsParentOf(cp.ID()) {
		t.Fatalf("ID %v not child of %v", cp.ID(), target.ID())
	}
	if d.Size() != before+2 {
		t.Fatalf("size %d want %d", d.Size(), before+2)
	}
	// Existing IDs unchanged; new nodes indexed.
	Walk(d.Root, func(n *Node) bool {
		if d.NodeByID(n.ID()) != n {
			t.Fatalf("index broken for %v", n.ID())
		}
		return true
	})
	Walk(cp, func(n *Node) bool {
		if oldIDs[n.ID().Key()] {
			t.Fatalf("new node reused existing ID %v", n.ID())
		}
		return true
	})
	// Insertion order: new child sorts after previous children.
	if cp.ID().Compare(target.kids()[0].ID()) <= 0 {
		t.Fatal("inserted child does not sort after siblings")
	}
}

func TestApplyInsertions(t *testing.T) {
	d := mustParse(t, `<r><p/></r>`)
	forest, err := ParseForest(`<x>1</x><y>2</y>`)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Root.ElementChildren()[0]
	got, replaced, err := d.ApplyInsertions([]Insertion{{Target: p, Trees: forest}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replaced) != 0 {
		t.Fatalf("a never-published document copied %d nodes", len(replaced))
	}
	if len(got) != 2 || got[0].Label() != "x" || got[1].Label() != "y" {
		t.Fatalf("inserted %v", got)
	}
	if got[0].ID().Compare(got[1].ID()) >= 0 {
		t.Fatal("forest order lost")
	}
}

func TestApplyInsertRejectsNonElement(t *testing.T) {
	d := mustParse(t, `<r>text</r>`)
	txt := d.Root.kids()[0]
	if _, err := d.ApplyInsert(txt, NewNode(Element, "x", "")); err == nil {
		t.Fatal("expected error inserting under text node")
	}
}

func TestApplyDelete(t *testing.T) {
	d := mustParse(t, sampleDoc)
	c := d.Root.ElementChildren()[0]
	inner := c.ElementChildren()[0] // b under c
	before := d.Size()
	removed, err := d.ApplyDelete(c)
	if err != nil {
		t.Fatal(err)
	}
	if removed != c {
		t.Fatal("detach failed")
	}
	if d.Size() != before-3 { // c, b, #text
		t.Fatalf("size %d want %d", d.Size(), before-3)
	}
	if d.NodeByID(c.ID()) != nil || d.NodeByID(inner.ID()) != nil {
		t.Fatal("deleted nodes still indexed")
	}
	if len(d.Root.ElementChildren()) != 1 {
		t.Fatal("child not removed from parent")
	}
}

func TestApplyDeleteRoot(t *testing.T) {
	d := mustParse(t, `<r/>`)
	if _, err := d.ApplyDelete(d.Root); err == nil {
		t.Fatal("expected error deleting root")
	}
}

func TestParseForestMultipleRoots(t *testing.T) {
	forest, err := ParseForest(`<a x="1"/><b>t</b>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 2 {
		t.Fatalf("forest len %d", len(forest))
	}
	if forest[0].Attr("x") == nil {
		t.Fatal("forest attribute lost")
	}
	if _, err := ParseForest(""); err == nil {
		t.Fatal("empty forest should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := mustParse(t, sampleDoc)
	c := d.Root.Clone()
	c.kids()[0].kids()[0].kids()[0].setValue("mutated") // hello
	c.kids()[1] = NewNode(Element, "mutated", "")
	if d.Root.StringValue() != "helloworld" || d.Root.kids()[1].Label() == "mutated" {
		t.Fatal("clone shares children")
	}
}

func TestCountNodes(t *testing.T) {
	d := mustParse(t, sampleDoc)
	if got := d.Root.CountNodes(); got != d.Size() {
		t.Fatalf("CountNodes %d != Size %d", got, d.Size())
	}
}

// NewDocument wraps a root node built elsewhere.
func NewDocument(root *Node) *Document {
	return &Document{Root: root, size: root.CountNodes(), labels: &labelCell{want: new(labelWants)}, keys: new(keyChain)}
}

// Attr returns the attribute child named name (without '@'), or nil.
func (n *Node) Attr(name string) *Node {
	want := "@" + name
	// Attributes are stored first; stop at the first non-attribute.
	for k := n.Kids(); k.Next() && k.Node().Kind == Attribute; {
		if c := k.Node(); c.Label() == want {
			return c
		}
	}
	return nil
}
