// Package xmltree implements the paper's document model: XML documents as
// ordered labeled trees of element, attribute and text nodes, each carrying
// a Compact Dynamic Dewey structural identifier. It provides parsing,
// serialization, string-value and content extraction, and the side-effecting
// subtree insertion/deletion primitives (apply-insert, apply-delete) that
// the update machinery builds on. A document is one tree: edited in place
// until it is first published (Snapshot), persistent — path-copying, sharing
// with the epochs it has published — from then on (image.go).
package xmltree

import (
	"strings"

	"xivm/internal/dewey"
)

// Kind distinguishes the three node kinds of the model.
type Kind uint8

const (
	// Element is an XML element node.
	Element Kind = iota
	// Attribute is an attribute node; its Label carries a leading '@'.
	Attribute
	// Text is a text node; Label is "#text".
	Text
)

// TextLabel is the label carried by text nodes.
const TextLabel = "#text"

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Text:
		return "text"
	}
	return "invalid"
}

// Node is one node of an ordered labeled XML tree. Attribute nodes appear at
// the front of their owner's Children, before any element or text children,
// and carry labels of the form "@name" so that structural IDs encode them
// uniformly.
//
// A node carries no parent pointer: once a document has been published
// (Snapshot) a node may sit under a different copy of its parent in every
// epoch that shares it. Its ID names its parent (ID.Parent), and ParentIn
// resolves that within one tree.
//
// Nor does it carry its label's bytes: it names the label by its code in
// the dewey label table, as its key's last frame does, and Label reads it
// back. A node is 64 bytes, a size class below the 80 a label string would
// cost it.
type Node struct {
	Kind Kind
	// code is the label's code in the dewey label table, or 0 for a label
	// the table refused, which the node's ID then spells out: its last frame,
	// or for a node not yet given its place (ParseForest, Clone) a one-frame
	// placeholder (newNode). It sits in Kind's padding.
	code uint16
	// gen is the publication the node was allocated for (see image.go): the
	// writer may edit a node whose gen is the document's, and must copy any
	// other first. It sits in Kind's padding too, so neither costs memory.
	gen      uint32
	Value    string // text content for Text and Attribute nodes
	Children []*Node
	ID       dewey.ID
}

// textCode is TextLabel's code, taken before anything else can fill the
// table: text nodes, the most numerous, never need their ID to name them.
var textCode = dewey.Code(TextLabel)

// NewNode returns a node with no children and no place in a document yet:
// label is the element's name, "@name" for an attribute, TextLabel for text.
func NewNode(kind Kind, label, value string) *Node {
	return newNode(kind, dewey.Code(label), label, value)
}

// newNode returns a node whose label has code c. A label the table refused
// goes into a one-frame placeholder ID — its ordinal empty, which no node of
// a document carries — so that Label answers it until the node is given its
// place.
func newNode(kind Kind, c uint16, label, value string) *Node {
	n := &Node{Kind: kind, code: c, Value: value}
	if c == 0 {
		n.ID = dewey.ID{}.ChildCode(0, label, nil)
	}
	return n
}

// Label returns the node's label: the element's name, "@name" for an
// attribute, TextLabel for text. For a label the table coded it is one
// atomic load and an index; for one it refused, the last frame of the
// node's ID.
func (n *Node) Label() string {
	if n.code != 0 {
		return dewey.LabelOf(n.code)
	}
	return n.ID.Label()
}

// Document is an XML document: a single root element whose tree is its own
// ID index. Children are in document order, which is Dewey key order, so
// the ID in a view tuple is resolved back to its node (as PIMT/PDMT need) by
// descending its steps, a binary search per level.
//
// There is one tree (image.go): edited in place until the first Snapshot,
// persistent from then on. An epoch is a frozen Document over the root the
// writer held when Snapshot was called; nothing reachable from it is ever
// written again.
type Document struct {
	Root   *Node
	frozen bool // an epoch: the mutators refuse it
	size   int  // number of nodes

	// labels is this version's cell of the lineage's label index
	// (labels.go), which the writer made its own at generation labelGen.
	labels   *labelCell
	labelGen uint32

	// copied counts the nodes the mutators allocated — spine copies and
	// inserted subtrees — since the last Snapshot; gen is the stamp those
	// nodes carry, advanced by every Snapshot (image.go).
	copied int
	gen    uint32
}

// NewDocument wraps a root node built elsewhere.
func NewDocument(root *Node) *Document {
	return &Document{Root: root, size: root.CountNodes(), labels: new(labelCell)}
}

// NodeByID resolves a structural ID to the document's node, or nil:
// O(depth × log fan-out), no allocation.
func (d *Document) NodeByID(id dewey.ID) *Node { return descend(d.Root, id) }

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return d.size }

// ChildIndex returns the position among parent's children of the child whose
// ID has the given key, or -1. Children are in document order, which is key
// order, so this is a binary search with no allocation.
func ChildIndex(parent *Node, key string) int {
	if i := keyAtLeast(parent.Children, key); i < len(parent.Children) && parent.Children[i].ID.Key() == key {
		return i
	}
	return -1
}

// descend follows id's Dewey steps down from root and returns the node
// there, or nil if the tree has no such node.
func descend(root *Node, id dewey.ID) *Node {
	c := id.Cursor()
	if !c.Next() || root.ID.Key() != c.Key() {
		return nil
	}
	n := root
	for c.Next() {
		i := ChildIndex(n, c.Key())
		if i < 0 {
			return nil
		}
		n = n.Children[i]
	}
	return n
}

// ParentIn returns n's parent within the tree rooted at root, by descending
// the Dewey steps of n's parent. Nil for a root, and when root is nil.
func ParentIn(root, n *Node) *Node {
	if root == nil {
		return nil
	}
	return descend(root, n.ID.Parent())
}

// Walk visits n and its descendants in document order, stopping early if f
// returns false for a node (its subtree is then skipped).
func Walk(n *Node, f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, f)
	}
}

// StringValue returns the node's string value: for text and attribute nodes
// the literal value; for elements the concatenation of all text descendants
// in document order, per the XPath data model.
func (n *Node) StringValue() string {
	switch n.Kind {
	case Text, Attribute:
		return n.Value
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		if c.Kind == Attribute {
			continue
		}
		c.appendText(b)
	}
}

// Content returns the serialized image of the subtree rooted at n — the
// "cont" stored attribute of the paper's tree patterns.
func (n *Node) Content() string {
	var b strings.Builder
	serializeNode(&b, n)
	return b.String()
}

// ElementChildren returns the element children of n, skipping attributes
// and text.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// Attr returns the attribute child named name (without '@'), or nil.
func (n *Node) Attr(name string) *Node {
	want := "@" + name
	for _, c := range n.Children {
		if c.Kind != Attribute {
			// Attributes are stored first; stop at the first non-attribute.
			break
		}
		if c.Label() == want {
			return c
		}
	}
	return nil
}

// lastOrd returns the ordinal of the last child of n, or nil when childless.
func (n *Node) lastOrd() dewey.Ord {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[len(n.Children)-1].appendOwnOrd(nil)
}

// appendOwnOrd appends n's own sibling ordinal, the last step of its ID, to
// dst.
func (n *Node) appendOwnOrd(dst dewey.Ord) dewey.Ord {
	c := n.ID.Cursor()
	for c.Next() && !c.Last() {
	}
	return c.AppendOrd(dst)
}

// Clone returns a deep copy of the subtree rooted at n, with no IDs assigned
// (IDs belong to a document position) beyond the placeholder that holds a
// label the table refused.
func (n *Node) Clone() *Node {
	c := newNode(n.Kind, n.code, n.Label(), n.Value)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return c
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// WordLabel returns the pattern label denoting a word leaf: a pattern node
// labeled "~w" matches any text node whose whitespace-tokenized value
// contains the word w (the paper's word alphabet A_w for pattern leaves).
func WordLabel(word string) string { return "~" + word }

// MatchesWord reports whether the node is a text node containing the given
// word as a whitespace-delimited token.
func (n *Node) MatchesWord(word string) bool {
	if n.Kind != Text {
		return false
	}
	rest := n.Value
	for len(rest) > 0 {
		tok := rest
		if i := indexSpace(rest); i >= 0 {
			tok, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if tok == word {
			return true
		}
	}
	return false
}

func indexSpace(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			return i
		}
	}
	return -1
}
