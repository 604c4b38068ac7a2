package xmltree

import (
	"fmt"
	"io"
	"slices"

	"xivm/internal/dewey"
)

// Parse reads an XML document from r and builds its tree with structural
// IDs assigned to every node. What it accepts, and how it reads it, is the
// scanner's (scan.go): whitespace-only text is dropped, mixed-content text
// kept, adjacent character data is one text node. A document it refuses is
// a *SyntaxError. Every node names its label by its dewey label table code
// (dewey.Code), looked up once per node and shared by the node and its ID,
// here and in ParseForest.
func Parse(r io.Reader) (*Document, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: %w", err)
	}
	return ParseString(string(src))
}

// ParseString parses a document from a string. Its values and keys are
// cut from byte slabs (slab.go).
func ParseString(s string) (*Document, error) {
	b := builder{s: scanner{src: s}, keys: &keyChain{bulk: true}}
	roots, err := b.build()
	if err != nil {
		return nil, err
	}
	b.keys.flush()
	b.keys.endBulk()
	return &Document{Root: roots[0], size: b.size, labels: &labelCell{want: new(labelWants)}, keys: b.keys}, nil
}

// ParseForest parses an XML fragment that may contain several top-level
// trees (the forests inserted by updates). The returned nodes have no IDs —
// IDs are assigned when the forest is spliced into a document — beyond the
// placeholder that holds a label the table refused (NewNode).
func ParseForest(s string) ([]*Node, error) {
	b := builder{s: scanner{src: s}}
	return b.build()
}

// ParseForestPrefix parses the forest s begins with, as ParseForest does,
// and returns it with its length in bytes: after each top-level tree (or
// comment or PI), the forest goes on if white space and then a '<' that does
// not open an end tag follow. It is how an update statement finds where its
// inserted forest ends.
func ParseForestPrefix(s string) ([]*Node, int, error) {
	b := builder{s: scanner{src: s, prefix: true}}
	forest, err := b.build()
	if err != nil {
		return nil, 0, err
	}
	return forest, b.s.pos, nil
}

// builder assembles the trees the scanner reads: a document's, whose nodes
// get their IDs from keys as they are made and their values from the value
// slab, or a forest's, with no keys, whose nodes get theirs when spliced
// into a document and whose values are allocated one by one.
type builder struct {
	s    scanner
	keys *keyChain // a document's; it becomes the document's scratch
	vals []byte    // a document's value slab's current chunk
	tops []*Node
	// stack holds the open elements; kids their children, each element's
	// from its frame's first on, which become its list when it closes.
	stack []frame
	kids  []*Node
	size  int
	// attrCodes caches the code of each attribute name's label, "@"+name,
	// which would otherwise be built to look it up.
	attrCodes map[string]uint16
}

type frame struct {
	n     *Node
	first int
}

func (b *builder) build() ([]*Node, error) {
	s := &b.s
	for {
		ev, err := s.next()
		if err != nil {
			return nil, err
		}
		switch ev {
		case evEOF:
			if len(b.tops) == 0 {
				return nil, s.errAt(s.pos, "no element")
			}
			return b.tops, nil
		case evText:
			b.add(Text, textCode, TextLabel, b.value(s.text))
		case evStart:
			if b.keys != nil && len(b.stack) == 0 && len(b.tops) > 0 {
				return nil, s.errAt(s.at, "a second root element")
			}
			n := b.add(Element, dewey.Code(s.local), s.local, "")
			b.stack = append(b.stack, frame{n: n, first: len(b.kids)})
			for _, a := range s.attrs {
				c, label := b.attrCode(a.local)
				b.add(Attribute, c, label, b.value(a.value))
			}
			if s.empty {
				b.close()
			}
		case evEnd:
			b.close()
		}
	}
}

// add makes a node whose label has code c — label is read only when the
// table refused it, for the node's ID to spell it out — and places it: as
// the innermost open element's next child, or as a top-level tree.
func (b *builder) add(kind Kind, c uint16, label, value string) *Node {
	var n *Node
	b.size++
	top := len(b.stack) - 1
	switch {
	case b.keys == nil:
		n = newNode(kind, c, label, value)
	case top < 0:
		n = &Node{Kind: kind, code: c}
		n.setValue(value)
		b.keys.place(n, nil, c, label, dewey.Ord{dewey.Gap}) // NewRoot, from the code in hand
	default:
		f := b.stack[top]
		n = &Node{Kind: kind, code: c}
		n.setValue(value)
		b.keys.place(n, f.n, c, label, dewey.OrdAt(len(b.kids)-f.first))
	}
	if top < 0 {
		b.tops = append(b.tops, n)
	} else {
		b.kids = append(b.kids, n)
	}
	return n
}

// value returns a copy of the value v: cut from the value slab for a
// document, allocated for a forest.
func (b *builder) value(v span) string {
	switch {
	case b.keys == nil:
		return b.s.str(v)
	case v.inBuf:
		return slabString(&b.vals, b.s.buf[v.lo:v.hi])
	}
	return slabString(&b.vals, b.s.src[v.lo:v.hi])
}

// close ends the innermost open element: the children gathered for it
// become its list, a slice of exactly their number when it is one leaf.
func (b *builder) close() {
	f := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	switch kids := b.kids[f.first:]; {
	case len(kids) == 0:
	case len(kids) <= fanout:
		f.n.setKids(slices.Clone(kids))
	default:
		for _, c := range kids {
			f.n.AppendChild(c)
		}
	}
	b.kids = b.kids[:f.first]
}

// attrCode returns the code of the label "@"+name and, when the table
// refused it, the label.
func (b *builder) attrCode(name string) (uint16, string) {
	if c := b.attrCodes[name]; c != 0 {
		return c, ""
	}
	label := "@" + name
	c := dewey.Code(label)
	if c != 0 {
		if b.attrCodes == nil {
			b.attrCodes = make(map[string]uint16)
		}
		b.attrCodes[name] = c
	}
	return c, label
}
