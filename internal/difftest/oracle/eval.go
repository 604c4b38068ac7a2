// Package oracle holds the interpreted XPath evaluator and the random
// document, query and edit generators: the slow reference that the
// compiled evaluator (internal/qvm), update targets, the view rewrite and
// the server's reads are tested against. Only tests import it.
package oracle

import (
	"sort"
	"strings"

	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// Eval evaluates an absolute path on the document, returning matching nodes
// in document order without duplicates.
//
// This interpreted evaluator is the differential oracle for the compiled
// evaluator in internal/qvm: it favors clarity, but the two per-call
// allocation sinks of the original implementation are gone — the per-step
// "seen" map is replaced by Dewey-key-sorted dedup (sort by the cached
// binary key, compact adjacent equals), and the per-call pseudo-root node
// is replaced by a virtual first step evaluated directly against the root.
func Eval(d *xmltree.Document, p xpath.Path) []*xmltree.Node {
	if len(p.Steps) == 0 {
		return nil
	}
	// The first step consumes the root itself: "/site" matches a root
	// labeled site; "//x" matches any element labeled x including the root.
	return evalFrom(d.Root, d.Root, true, p.Steps)
}

// evalFrom runs the step sequence. When fromDoc is set, start is the
// document root and the first step is evaluated against the virtual
// document node (child yields the root; descendant yields the root and all
// its descendants; sibling axes yield nothing). root is the root of the
// tree under evaluation, through which sibling axes find a node's parent
// (xmltree.ParentIn); nil when only a context node is known.
func evalFrom(root, start *xmltree.Node, fromDoc bool, steps []xpath.Step) []*xmltree.Node {
	if len(steps) == 0 {
		return []*xmltree.Node{start}
	}
	cur := []*xmltree.Node{start}
	var next []*xmltree.Node
	for si := range steps {
		st := &steps[si]
		next = next[:0]
		if si == 0 && fromDoc {
			next = evalGroup(next, st, root, nil, start)
		} else {
			for _, c := range cur {
				next = evalGroup(next, st, root, c, nil)
			}
		}
		if len(next) == 0 {
			return nil
		}
		dedupDocOrder(&next)
		cur, next = next, cur
	}
	return cur
}

// evalGroup appends one context node's match group for the step, with the
// step's predicates applied sequentially to the group (positional tests see
// 1-based positions within the group as filtered so far). A nil ctx with a
// non-nil docRoot denotes the virtual document node.
func evalGroup(dst []*xmltree.Node, st *xpath.Step, root, ctx, docRoot *xmltree.Node) []*xmltree.Node {
	base := len(dst)
	switch {
	case docRoot != nil:
		switch st.Axis {
		case xpath.Child:
			if matchTest(st, docRoot) {
				dst = append(dst, docRoot)
			}
		case xpath.Descendant:
			xmltree.Walk(docRoot, func(n *xmltree.Node) bool {
				if matchTest(st, n) {
					dst = append(dst, n)
				}
				return true
			})
		}
		// Sibling axes from the virtual document node match nothing.
	default:
		switch st.Axis {
		case xpath.Child:
			for k := ctx.Kids(); k.Next(); {
				if ch := k.Node(); matchTest(st, ch) {
					dst = append(dst, ch)
				}
			}
		case xpath.Descendant:
			xmltree.Walk(ctx, func(n *xmltree.Node) bool {
				if n != ctx && matchTest(st, n) {
					dst = append(dst, n)
				}
				return true
			})
		case xpath.FollowingSibling:
			if k, ok := siblings(root, ctx); ok {
				for k.Next() {
					if matchTest(st, k.Node()) {
						dst = append(dst, k.Node())
					}
				}
			}
		case xpath.PrecedingSibling:
			// Nearest-first group order, so [1] is the immediately
			// preceding sibling.
			if k, ok := siblings(root, ctx); ok {
				for k.Prev() {
					if matchTest(st, k.Node()) {
						dst = append(dst, k.Node())
					}
				}
			}
		}
	}
	// Sequential predicate filtering over the group dst[base:].
	for _, pr := range st.Preds {
		group := dst[base:]
		size := len(group)
		kept := base
		for i, n := range group {
			if evalPred(root, n, i+1, size, pr) {
				dst[kept] = n
				kept++
			}
		}
		dst = dst[:kept]
	}
	return dst
}

// siblings returns a cursor at ctx among its parent's children, the parent
// found through root; false for a root.
func siblings(root, ctx *xmltree.Node) (xmltree.Kids, bool) {
	p := xmltree.ParentIn(root, ctx)
	if p == nil {
		return xmltree.Kids{}, false
	}
	return p.KidsAt(ctx.ID().Key())
}

func matchTest(st *xpath.Step, n *xmltree.Node) bool {
	switch st.Kind {
	case xpath.TestName:
		return n.Kind == xmltree.Element && n.Label() == st.Name
	case xpath.TestWildcard:
		return n.Kind == xmltree.Element
	case xpath.TestAttr:
		return n.Kind == xmltree.Attribute && n.Label() == "@"+st.Name
	case xpath.TestText:
		return n.Kind == xmltree.Text
	}
	return false
}

// evalPred evaluates one predicate against a context node at 1-based
// position pos within a match group of the given size.
func evalPred(root, ctx *xmltree.Node, pos, size int, e xpath.Expr) bool {
	switch x := e.(type) {
	case xpath.OrExpr:
		return evalPred(root, ctx, pos, size, x.Left) || evalPred(root, ctx, pos, size, x.Right)
	case xpath.AndExpr:
		return evalPred(root, ctx, pos, size, x.Left) && evalPred(root, ctx, pos, size, x.Right)
	case xpath.ExistsExpr:
		return len(evalFrom(root, ctx, false, x.Path.Steps)) > 0
	case xpath.EqExpr:
		for _, n := range evalFrom(root, ctx, false, x.Path.Steps) {
			if n.StringValue() == x.Lit {
				return true
			}
		}
		return false
	case xpath.PosExpr:
		return pos == x.N
	case xpath.LastExpr:
		return pos == size
	case xpath.CountExpr:
		return x.Op.Holds(len(evalFrom(root, ctx, false, x.Path.Steps)), x.N)
	case xpath.ContainsExpr:
		for _, n := range evalFrom(root, ctx, false, x.Path.Steps) {
			if matchesLit(n.StringValue(), x.Lit, x.Prefix) {
				return true
			}
		}
		return false
	}
	return false
}

// matchesLit implements the contains / starts-with test.
func matchesLit(s, lit string, prefix bool) bool {
	if prefix {
		return strings.HasPrefix(s, lit)
	}
	return strings.Contains(s, lit)
}

// dedupDocOrder sorts nodes into document order by their cached binary
// Dewey keys and removes adjacent duplicates in place.
func dedupDocOrder(nodes *[]*xmltree.Node) {
	ns := *nodes
	if len(ns) < 2 {
		return
	}
	sort.Slice(ns, func(i, j int) bool {
		return ns[i].ID().Key() < ns[j].ID().Key()
	})
	out := ns[:1]
	for _, n := range ns[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	*nodes = out
}
