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
	"fmt"
	"strings"
	"unsafe"

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
// the front of their owner's children, before any element or text children,
// and carry labels of the form "@name" so that structural IDs encode them
// uniformly. The children are read through a cursor (Kids, KidsAt): they
// lie in a persistent sequence (kids.go), not a slice.
//
// A node carries no parent pointer: once a document has been published
// (Snapshot) a node may sit under a different copy of its parent in every
// epoch that shares it. Its ID names its parent (ID.Parent), and ParentIn
// resolves that within one tree.
//
// Nor does it carry its label's bytes: it names the label by its code in
// the dewey label table, as its key's last frame does, and Label reads it
// back.
//
// A node is 32 bytes. Its ID's key, its value and its child list are each
// a pointer and a length rather than a string or slice header, read back
// through ID, Value and kids and written only through the setters below —
// the one file of the package that uses unsafe. A Text or Attribute node
// has a value and no children, an element or a branch children and no
// value, so the two share one pointer and one length word (CheckPayload).
type Node struct {
	Kind Kind
	// height is how many levels of branches the child list has above the
	// children (kids.go): 0 for a list of at most 64. It sits in Kind's
	// padding.
	height uint8
	// code is the label's code in the dewey label table, or 0 for a label
	// the table refused, which the node's ID then spells out: its last frame,
	// or for a node not yet given its place (ParseForest, Clone) a one-frame
	// placeholder (newNode). It sits in Kind's padding.
	code uint16
	// gen is the publication the node was allocated for (see image.go): the
	// writer may edit a node whose gen is the document's, and must copy any
	// other first. It sits in Kind's padding too, so none of the three costs
	// memory.
	gen uint32
	// keyLen and key are the ID's key: its length and its first byte, nil
	// for the null ID.
	keyLen uint32
	// word is the payload's length. For Text and Attribute it is the
	// value's; for an element or a branch the child slice's length in its
	// low half and its capacity, at most fanout, in its high half.
	word uint32
	key  *byte
	// payload is the value's first byte for Text and Attribute and the child
	// slice's array for an element or a branch (kids.go): the children
	// themselves, or for a list of more than 64 the branches above them. Nil
	// when the value is empty or the slice has no capacity.
	payload unsafe.Pointer
}

// ID returns the node's structural identifier.
func (n *Node) ID() dewey.ID { return dewey.FromKey(unsafe.String(n.key, n.keyLen)) }

// SetID gives n the structural identifier id. The parsers and mutators
// place a document's nodes with it; anywhere else it is for nodes not in a
// document, such as a test's fixtures.
func (n *Node) SetID(id dewey.ID) {
	k := id.Key()
	n.key, n.keyLen = unsafe.StringData(k), uint32(len(k))
	if k == "" {
		n.key = nil
	}
}

// holdsValue reports whether n is a Text or Attribute node, whose payload
// is its value, not a child list.
func (n *Node) holdsValue() bool { return n.Kind == Attribute || n.Kind == Text }

// Value returns the text content of a Text or Attribute node; "" for an
// element.
func (n *Node) Value() string {
	if !n.holdsValue() {
		return ""
	}
	return unsafe.String((*byte)(n.payload), n.word)
}

// setValue gives a Text or Attribute node its value. An element holds
// none: setValue panics on any but "" for one.
func (n *Node) setValue(v string) {
	if !n.holdsValue() {
		if v != "" {
			panic("xmltree: a " + n.Kind.String() + " node holds no value")
		}
		return
	}
	n.payload, n.word = unsafe.Pointer(unsafe.StringData(v)), uint32(len(v))
	if v == "" {
		n.payload = nil
	}
}

// kids returns the top slice of n's child list (kids.go); nil for a Text
// or Attribute node.
func (n *Node) kids() []*Node {
	if n.holdsValue() {
		return nil
	}
	return unsafe.Slice((**Node)(n.payload), n.word>>16)[:n.word&0xffff]
}

// numKids returns the length of the top slice of n's child list; n is an
// element or a branch.
func (n *Node) numKids() int { return int(n.word & 0xffff) }

// kid returns entry i of the top slice of n's child list; n is an element
// or a branch.
func (n *Node) kid(i int) *Node { return unsafe.Slice((**Node)(n.payload), n.word&0xffff)[i] }

// setKids makes s, of at most fanout entries, the top slice of the child
// list of n, an element or a branch. A capacity beyond fanout is not
// recorded: an append past it copies the slice.
func (n *Node) setKids(s []*Node) {
	if cap(s) == 0 {
		n.payload, n.word = nil, 0
		return
	}
	n.payload = unsafe.Pointer(unsafe.SliceData(s))
	n.word = uint32(len(s)) | uint32(min(cap(s), fanout))<<16
}

// slabString returns a copy of v cut from the byte slab whose current
// chunk is *chunk (slab.go): appended to that chunk, or to a fresh one when
// v does not fit in what is left of it — or, over slabOwn bytes, in an
// allocation of its own. A chunk's bytes are written once, so the string
// stays as it was cut.
func slabString[T string | []byte](chunk *[]byte, v T) string {
	switch {
	case len(v) == 0:
		return ""
	case len(v) > slabOwn:
		own := make([]byte, len(v))
		copy(own, v)
		return unsafe.String(&own[0], len(own))
	case len(v) > cap(*chunk)-len(*chunk):
		*chunk = make([]byte, 0, slabBytes)
	}
	lo := len(*chunk)
	*chunk = append(*chunk, v...)
	return unsafe.String(&(*chunk)[lo], len(v))
}

// CheckPayload walks the subtree rooted at n, branches included, and
// reports the first node whose pointer-and-length fields break the layout
// Node describes: a Text or Attribute node with a child list, an element or
// a branch with a value, a child slice longer than fanout, a pointer set
// for a length of zero or missing for one that is not — or, below a node in
// a document, a child whose ID is not its parent's extended by one step
// named with the child's label.
func CheckPayload(n *Node) error {
	id := n.ID()
	return checkPayload(n, id, !id.IsNull() && len(id.Step(0).Ord) > 0)
}

// checkPayload is CheckPayload below owner, the ID of n or, for a branch,
// of the element whose list it is; placed says whether owner is a place in
// a document rather than the null or placeholder ID of a loose tree.
func checkPayload(n *Node, owner dewey.ID, placed bool) error {
	if (n.key == nil) != (n.keyLen == 0) {
		return fmt.Errorf("%s node %v: key pointer and length disagree", n.Kind, n.ID())
	}
	if n.holdsValue() {
		if n.height != 0 {
			return fmt.Errorf("%s node %v has a child list", n.Kind, n.ID())
		}
		if (n.payload == nil) != (n.word == 0) {
			return fmt.Errorf("%s node %v: value pointer and length disagree", n.Kind, n.ID())
		}
		return nil
	}
	if n.Value() != "" {
		return fmt.Errorf("%s node %v has a value", n.Kind, n.ID())
	}
	if size, room := n.word&0xffff, n.word>>16; size > room || room > fanout || (n.payload == nil) != (room == 0) {
		return fmt.Errorf("%s node %v: child slice of length %d, capacity %d, array %p", n.Kind, n.ID(), size, room, n.payload)
	}
	for _, c := range n.kids() {
		below := owner
		if c.Kind != branch {
			below = c.ID()
			if placed && (!owner.IsParentOf(below) || below.Label() != c.Label()) {
				return fmt.Errorf("%s node %v has the child ID %v", n.Kind, owner, below)
			}
		}
		if err := checkPayload(c, below, placed); err != nil {
			return err
		}
	}
	return nil
}

// textCode is TextLabel's code, taken before anything else can fill the
// table: text nodes, the most numerous, never need their ID to name them.
var textCode = dewey.Code(TextLabel)

// NewNode returns a node with no children and no place in a document yet:
// label is the element's name, "@name" for an attribute, TextLabel for text.
// It panics if an element is given a value: an element's payload is its
// child list.
func NewNode(kind Kind, label, value string) *Node {
	return newNode(kind, dewey.Code(label), label, value)
}

// newNode returns a node whose label has code c. A label the table refused
// goes into a one-frame placeholder ID — its ordinal empty, which no node of
// a document carries — so that Label answers it until the node is given its
// place.
func newNode(kind Kind, c uint16, label, value string) *Node {
	n := &Node{Kind: kind, code: c}
	n.setValue(value)
	if c == 0 {
		n.SetID(dewey.ID{}.ChildCode(0, label, nil))
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
	return n.ID().Label()
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
	// inserted subtrees — since the lineage's parse; gen is the stamp the
	// nodes allocated since the last Snapshot carry, advanced by every
	// Snapshot (image.go).
	copied int
	gen    uint32

	keys *keyChain // the writer's scratch for the keys it gives (keys.go); nil in an epoch
}

// NodeByID resolves a structural ID to the document's node, or nil:
// O(depth × log fan-out), no allocation.
func (d *Document) NodeByID(id dewey.ID) *Node { return descend(d.Root, id) }

// Size returns the number of nodes in the document.
func (d *Document) Size() int { return d.size }

// descend follows id's Dewey steps down from root and returns the node
// there, or nil if the tree has no such node. Children are in document
// order, which is key order, so each step is a binary search per level of
// the child list.
func descend(root *Node, id dewey.ID) *Node {
	c := id.Cursor()
	if !c.Next() || root.ID().Key() != c.Key() {
		return nil
	}
	n := root
	for c.Next() {
		k, ok := n.KidsAt(c.Key())
		if !ok {
			return nil
		}
		n = k.Node()
	}
	return n
}

// ParentIn returns n's parent within the tree rooted at root, by descending
// the Dewey steps of n's parent. Nil for a root, and when root is nil.
func ParentIn(root, n *Node) *Node {
	if root == nil {
		return nil
	}
	return descend(root, n.ID().Parent())
}

// Walk visits n and its descendants in document order, stopping early if f
// returns false for a node (its subtree is then skipped).
func Walk(n *Node, f func(*Node) bool) {
	if !f(n) {
		return
	}
	for k := n.Kids(); k.Next(); {
		Walk(k.Node(), f)
	}
}

// StringValue returns the node's string value: for text and attribute nodes
// the literal value; for elements the concatenation of all text descendants
// in document order, per the XPath data model.
func (n *Node) StringValue() string {
	switch n.Kind {
	case Text, Attribute:
		return n.Value()
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Kind == Text {
		b.WriteString(n.Value())
		return
	}
	for k := n.Kids(); k.Next(); {
		if c := k.Node(); c.Kind != Attribute {
			c.appendText(b)
		}
	}
}

// Content returns the serialized image of the subtree rooted at n — the
// "cont" stored attribute of the paper's tree patterns.
func (n *Node) Content() string {
	b := n.AppendContent(nil)
	return unsafe.String(unsafe.SliceData(b), len(b)) // as strings.Builder does: nothing writes b again
}

// AppendContent appends what Content returns to dst and returns the
// extended slice.
func (n *Node) AppendContent(dst []byte) []byte {
	sink := xmlSink{buf: dst}
	serializeNode(&sink, n)
	return sink.buf
}

// ElementChildren returns the element children of n, skipping attributes
// and text.
func (n *Node) ElementChildren() []*Node {
	var out []*Node
	for k := n.Kids(); k.Next(); {
		if c := k.Node(); c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// lastOrd returns the ordinal of the last child of n, or nil when childless.
func (n *Node) lastOrd() dewey.Ord {
	if c := lastKid(n); c != nil {
		return c.appendOwnOrd(nil)
	}
	return nil
}

// appendOwnOrd appends n's own sibling ordinal, the last step of its ID, to
// dst.
func (n *Node) appendOwnOrd(dst dewey.Ord) dewey.Ord {
	c := n.ID().Cursor()
	for c.Next() && !c.Last() {
	}
	return c.AppendOrd(dst)
}

// Clone returns a deep copy of the subtree rooted at n, with no IDs assigned
// (IDs belong to a document position) beyond the placeholder that holds a
// label the table refused.
func (n *Node) Clone() *Node {
	c := newNode(n.Kind, n.code, n.Label(), n.Value())
	if w := n.NumChildren(); w > 0 {
		c.setKids(make([]*Node, 0, min(w, fanout)))
	}
	for k := n.Kids(); k.Next(); {
		c.AppendChild(k.Node().Clone())
	}
	return c
}

// CountNodes returns the number of nodes in the subtree rooted at n.
func (n *Node) CountNodes() int {
	total := 1
	for k := n.Kids(); k.Next(); {
		total += k.Node().CountNodes()
	}
	return total
}

// MatchesWord reports whether the node is a text node containing the given
// word as a whitespace-delimited token: what a pattern node labeled "~word"
// matches (the paper's word alphabet A_w for pattern leaves).
func (n *Node) MatchesWord(word string) bool {
	if n.Kind != Text {
		return false
	}
	rest := n.Value()
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
