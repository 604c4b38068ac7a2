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
// dropped; mixed-content text is kept. Element and attribute labels are the
// dewey label table's strings (dewey.Intern), one per distinct label, here
// and in ParseForest.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	childOrds := map[*Node]int{} // next sibling index during initial load

	push := func(n *Node) error {
		if len(stack) == 0 {
			if root != nil {
				return errors.New("xmltree: multiple root elements")
			}
			if n.Kind != Element {
				return errors.New("xmltree: document root must be an element")
			}
			n.ID = dewey.NewRoot(n.Label)
			root = n
			return nil
		}
		parent := stack[len(stack)-1]
		i := childOrds[parent]
		childOrds[parent] = i + 1
		n.ID = parent.ID.Child(n.Label, dewey.OrdAt(i))
		parent.Children = append(parent.Children, n)
		return nil
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
			n := &Node{Kind: Element, Label: dewey.Intern(t.Name.Local)}
			if err := push(n); err != nil {
				return nil, err
			}
			stack = append(stack, n)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				attr := &Node{Kind: Attribute, Label: dewey.Intern("@" + a.Name.Local), Value: a.Value}
				if err := push(attr); err != nil {
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
			n := &Node{Kind: Text, Label: TextLabel, Value: s}
			if err := push(n); err != nil {
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
// trees (the forests inserted by updates). The returned nodes have no IDs:
// IDs are assigned when the forest is spliced into a document.
func ParseForest(s string) ([]*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var tops []*Node
	var stack []*Node
	add := func(n *Node) {
		if len(stack) == 0 {
			tops = append(tops, n)
			return
		}
		parent := stack[len(stack)-1]
		parent.Children = append(parent.Children, n)
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
			n := &Node{Kind: Element, Label: dewey.Intern(t.Name.Local)}
			add(n)
			stack = append(stack, n)
			for _, a := range t.Attr {
				add(&Node{Kind: Attribute, Label: dewey.Intern("@" + a.Name.Local), Value: a.Value})
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
			add(&Node{Kind: Text, Label: TextLabel, Value: s})
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
