package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"xivm/internal/dewey"
)

// Parse reads an XML document from r and builds its tree with structural
// IDs assigned to every node. Whitespace-only text between elements is
// dropped; mixed-content text is kept. Every node names its label by its
// dewey label table code (dewey.Code), looked up once per node and shared by
// the node and its ID, here and in ParseForest.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	// stack holds the open elements, each with the number of children it
	// has so far: the next one's sibling index.
	type open struct {
		n    *Node
		kids int
	}
	var stack []open

	// push places a node whose label has code c: label is read only when
	// the table refused it, for the node's ID to spell it out.
	push := func(kind Kind, c uint16, label, value string) (*Node, error) {
		n := &Node{Kind: kind, code: c, Value: value}
		if len(stack) == 0 {
			if root != nil {
				return nil, errors.New("xmltree: multiple root elements")
			}
			if kind != Element {
				return nil, errors.New("xmltree: document root must be an element")
			}
			n.ID = dewey.ID{}.ChildCode(c, label, dewey.Ord{dewey.Gap}) // NewRoot, from the code in hand
			root = n
			return n, nil
		}
		parent := &stack[len(stack)-1]
		n.ID = parent.n.ID.ChildCode(c, label, dewey.OrdAt(parent.kids))
		parent.kids++
		parent.n.AppendChild(n)
		return n, nil
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n, err := push(Element, dewey.Code(t.Name.Local), t.Name.Local, "")
			if err != nil {
				return nil, err
			}
			stack = append(stack, open{n: n})
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				label := "@" + a.Name.Local
				if _, err := push(Attribute, dewey.Code(label), label, a.Value); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 0 {
				continue
			}
			if _, err := push(Text, textCode, TextLabel, s); err != nil {
				return nil, err
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Ignored by the model.
		}
	}
	if root == nil {
		return nil, errors.New("xmltree: empty document")
	}
	if len(stack) != 0 {
		return nil, errors.New("xmltree: unclosed elements")
	}
	return NewDocument(root), nil
}

// ParseString parses a document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseForest parses an XML fragment that may contain several top-level
// trees (the forests inserted by updates). The returned nodes have no IDs —
// IDs are assigned when the forest is spliced into a document — beyond the
// placeholder that holds a label the table refused (NewNode).
func ParseForest(s string) ([]*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var tops []*Node
	var stack []*Node
	add := func(n *Node) {
		if len(stack) == 0 {
			tops = append(tops, n)
			return
		}
		stack[len(stack)-1].AppendChild(n)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewNode(Element, t.Name.Local, "")
			add(n)
			stack = append(stack, n)
			for _, a := range t.Attr {
				add(NewNode(Attribute, "@"+a.Name.Local, a.Value))
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmltree: unbalanced end element in forest")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if len(stack) == 0 {
				continue
			}
			add(newNode(Text, textCode, TextLabel, s))
		}
	}
	if len(stack) != 0 {
		return nil, errors.New("xmltree: unclosed elements in forest")
	}
	if len(tops) == 0 {
		return nil, errors.New("xmltree: empty forest")
	}
	return tops, nil
}
