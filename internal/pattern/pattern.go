// Package pattern implements the paper's tree pattern dialect P: rooted
// trees whose nodes carry an element/attribute label (or wildcard), whose
// edges denote parent-child (/) or ancestor-descendant (//) relationships,
// and whose nodes may be annotated with stored attributes (ID, val, cont)
// and with value predicates [val = c]. It also implements the sub-pattern
// machinery the maintenance algorithms need: snowcap enumeration
// (Definition 3.11) and the sub-pattern lattice.
package pattern

import (
	"fmt"
	"strings"
)

// Store is a bitmask of the information items a pattern node stores for
// each matching XML node.
type Store uint8

const (
	// StoreID stores the node's Compact Dynamic Dewey ID.
	StoreID Store = 1 << iota
	// StoreVal stores the node's string value (concatenated text
	// descendants).
	StoreVal
	// StoreCont stores the node's serialized content (full subtree image).
	StoreCont
)

// Has reports whether all bits of q are set in s.
func (s Store) Has(q Store) bool { return s&q == q }

func (s Store) String() string {
	var parts []string
	if s.Has(StoreID) {
		parts = append(parts, "ID")
	}
	if s.Has(StoreVal) {
		parts = append(parts, "val")
	}
	if s.Has(StoreCont) {
		parts = append(parts, "cont")
	}
	return strings.Join(parts, ",")
}

// Node is one node of a tree pattern.
type Node struct {
	Label    string // element label, "@name" for attributes, or "*"
	Desc     bool   // edge from parent is // (ancestor-descendant); root: unused
	Store    Store
	HasPred  bool
	PredVal  string // the c of [val = c]
	Children []*Node

	// Index is the node's preorder position, assigned by Finalize.
	Index  int
	parent *Node
}

// Pattern is a finalized tree pattern. Nodes are addressable by preorder
// index; index 0 is the root.
type Pattern struct {
	Root  *Node
	Nodes []*Node // preorder
}

// New finalizes a pattern rooted at root: it assigns preorder indexes and
// parent links. The pattern must have at most 64 nodes (term bitmasks and
// lattice sets are 64-bit).
func New(root *Node) (*Pattern, error) {
	p := &Pattern{Root: root}
	var walk func(n, parent *Node) error
	walk = func(n, parent *Node) error {
		n.Index = len(p.Nodes)
		n.parent = parent
		p.Nodes = append(p.Nodes, n)
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, nil); err != nil {
		return nil, err
	}
	if len(p.Nodes) > 64 {
		return nil, fmt.Errorf("pattern: %d nodes exceeds the 64-node limit", len(p.Nodes))
	}
	return p, nil
}

// MustNew is New for statically known patterns.
func MustNew(root *Node) *Pattern {
	p, err := New(root)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the number of pattern nodes.
func (p *Pattern) Size() int { return len(p.Nodes) }

// ParentIndex returns the preorder index of node i's parent, or -1.
func (p *Pattern) ParentIndex(i int) int {
	if par := p.Nodes[i].parent; par != nil {
		return par.Index
	}
	return -1
}

// IsAncestor reports whether pattern node a is a proper ancestor of pattern
// node b (by index).
func (p *Pattern) IsAncestor(a, b int) bool {
	for cur := p.Nodes[b].parent; cur != nil; cur = cur.parent {
		if cur.Index == a {
			return true
		}
	}
	return false
}

// StoredIndexes returns the preorder indexes of nodes that store anything.
func (p *Pattern) StoredIndexes() []int {
	var out []int
	for i, n := range p.Nodes {
		if n.Store != 0 {
			out = append(out, i)
		}
	}
	return out
}

// ContValIndexes returns the indexes of nodes annotated with cont or val —
// the paper's cvn set, driving the tuple-modification algorithms.
func (p *Pattern) ContValIndexes() []int {
	var out []int
	for i, n := range p.Nodes {
		if n.Store.Has(StoreVal) || n.Store.Has(StoreCont) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the pattern in a compact XPath-like syntax with stored
// attributes as subscripts, e.g. "//a{ID}[//b{ID}//c]//d{ID,cont}".
// String is Parse's inverse: the output reparses to an equal pattern,
// including the root's / vs // anchoring (a /-anchored root only matches
// the document root element; flattening it to // would widen the view).
// Durable artifacts (checkpoint manifests, write-ahead view records) store
// this rendering, so its stability is load-bearing.
func (p *Pattern) String() string {
	var b strings.Builder
	writeNode(&b, p.Root)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	if n.Desc {
		b.WriteString("//")
	} else {
		b.WriteString("/")
	}
	b.WriteString(n.Label)
	if n.Store != 0 {
		b.WriteString("{" + n.Store.String() + "}")
	}
	if n.HasPred {
		fmt.Fprintf(b, "[val=%q]", n.PredVal)
	}
	// Non-last children print as bracketed branches; the last child
	// continues the main path, matching the paper's notation.
	for i, c := range n.Children {
		if i < len(n.Children)-1 {
			b.WriteByte('[')
			writeNode(b, c)
			b.WriteByte(']')
		} else {
			writeNode(b, c)
		}
	}
}

// Clone returns a deep copy of the pattern (finalized again), optionally
// transforming each node's Store via f (nil keeps stores).
func (p *Pattern) Clone(f func(i int, s Store) Store) *Pattern {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Label: n.Label, Desc: n.Desc, Store: n.Store, HasPred: n.HasPred, PredVal: n.PredVal}
		if f != nil {
			m.Store = f(n.Index, n.Store)
		}
		for _, c := range n.Children {
			m.Children = append(m.Children, cp(c))
		}
		return m
	}
	return MustNew(cp(p.Root))
}

// SubPattern materializes the sub-pattern induced by the node set mask
// (which must be connected and upward-closed, i.e. a snowcap). The returned
// pattern preserves labels, edges, predicates and stores; its nodes keep a
// mapping back to the original indexes, returned as the second value in
// sub-pattern preorder.
func (p *Pattern) SubPattern(mask uint64) (*Pattern, []int) {
	if mask&1 == 0 {
		panic("pattern: SubPattern mask must contain the root")
	}
	var orig []int
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Label: n.Label, Desc: n.Desc, Store: n.Store, HasPred: n.HasPred, PredVal: n.PredVal}
		orig = append(orig, n.Index)
		for _, c := range n.Children {
			if mask&(1<<uint(c.Index)) != 0 {
				m.Children = append(m.Children, cp(c))
			}
		}
		return m
	}
	root := cp(p.Root)
	return MustNew(root), orig
}
