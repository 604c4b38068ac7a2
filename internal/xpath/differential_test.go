package xpath

import (
	"math/rand"
	"testing"

	"xivm/internal/xmltree"
)

// refEval is an independent reference evaluator: instead of navigating, it
// filters the full document node list per context using parent-chain and
// sibling-scan checks, building each step's per-context match group
// explicitly and applying predicates sequentially over it — the same
// semantics the navigating evaluator and the compiled VM implement, reached
// by a different route.
func refEval(d *xmltree.Document, p Path) []*xmltree.Node {
	var all []*xmltree.Node
	parent := map[*xmltree.Node]*xmltree.Node{}
	xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
		all = append(all, n)
		for _, c := range n.Children {
			parent[c] = n
		}
		return true
	})
	matches := func(st Step, n *xmltree.Node) bool {
		switch st.Kind {
		case TestName:
			return n.Kind == xmltree.Element && n.Label() == st.Name
		case TestWildcard:
			return n.Kind == xmltree.Element
		case TestAttr:
			return n.Kind == xmltree.Attribute && n.Label() == "@"+st.Name
		case TestText:
			return n.Kind == xmltree.Text
		}
		return false
	}
	// group builds the ordered match group of one step for one context
	// node (nil = virtual document node) by scanning the document-ordered
	// node list; preceding-sibling reverses to nearest-first order.
	group := func(st Step, c *xmltree.Node) []*xmltree.Node {
		var g []*xmltree.Node
		for _, n := range all {
			ok := false
			switch st.Axis {
			case Child:
				if c == nil {
					ok = n == d.Root
				} else {
					ok = parent[n] == c
				}
			case Descendant:
				if c == nil {
					ok = true
				} else {
					for a := parent[n]; a != nil; a = parent[a] {
						if a == c {
							ok = true
							break
						}
					}
				}
			case FollowingSibling:
				if c != nil && parent[n] != nil && parent[n] == parent[c] && n != c {
					// After c in its parent's child list?
					seen := false
					for _, ch := range parent[c].Children {
						if ch == c {
							seen = true
							continue
						}
						if ch == n {
							ok = seen
							break
						}
					}
				}
			case PrecedingSibling:
				if c != nil && parent[n] != nil && parent[n] == parent[c] && n != c {
					for _, ch := range parent[c].Children {
						if ch == n {
							ok = true
							break
						}
						if ch == c {
							break
						}
					}
				}
			}
			if ok && matches(st, n) {
				g = append(g, n)
			}
		}
		if st.Axis == PrecedingSibling {
			for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
				g[i], g[j] = g[j], g[i]
			}
		}
		return g
	}
	// ctx holds context nodes of the previous step (nil = document).
	contexts := []*xmltree.Node{nil}
	for _, st := range p.Steps {
		set := map[*xmltree.Node]bool{}
		for _, c := range contexts {
			g := group(st, c)
			for _, pr := range st.Preds {
				var kept []*xmltree.Node
				size := len(g)
				for i, n := range g {
					if refPred(d.Root, n, i+1, size, pr) {
						kept = append(kept, n)
					}
				}
				g = kept
			}
			for _, n := range g {
				set[n] = true
			}
		}
		contexts = contexts[:0]
		for _, n := range all { // document order
			if set[n] {
				contexts = append(contexts, n)
			}
		}
		if len(contexts) == 0 {
			return nil
		}
	}
	return contexts
}

func refPred(root, ctx *xmltree.Node, pos, size int, e Expr) bool {
	switch x := e.(type) {
	case OrExpr:
		return refPred(root, ctx, pos, size, x.Left) || refPred(root, ctx, pos, size, x.Right)
	case AndExpr:
		return refPred(root, ctx, pos, size, x.Left) && refPred(root, ctx, pos, size, x.Right)
	case ExistsExpr:
		return len(evalFrom(root, ctx, false, x.Path.Steps)) > 0
	case EqExpr:
		for _, n := range evalFrom(root, ctx, false, x.Path.Steps) {
			if n.StringValue() == x.Lit {
				return true
			}
		}
	case PosExpr:
		return pos == x.N
	case LastExpr:
		return pos == size
	case CountExpr:
		return x.Op.Holds(len(evalFrom(root, ctx, false, x.Path.Steps)), x.N)
	case ContainsExpr:
		for _, n := range evalFrom(root, ctx, false, x.Path.Steps) {
			if matchesLit(n.StringValue(), x.Lit, x.Prefix) {
				return true
			}
		}
	}
	return false
}

// TestEvalMatchesReference compares the evaluator with the reference on
// random documents and random paths over the widened grammar — and then
// again on a path-copied image of the document after random edits, whose
// nodes have no Parent pointers for the sibling axes to follow, against the
// reference on the edited live tree.
func TestEvalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 1200; trial++ {
		src := RandomDoc(rng)
		d, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		expr := RandomQuery(rng)
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got := Eval(d, p)
		want := refEval(d, p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s over %s: %d vs %d nodes", trial, expr, src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: %s: node %d differs", trial, expr, i)
			}
		}

		d.Snapshot()
		RandomEdits(rng, d)
		got, want = Eval(d.Snapshot(), p), refEval(d, p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s over the image of %s: %d vs %d nodes", trial, expr, d, len(got), len(want))
		}
		for i := range got {
			if !got[i].ID.Equal(want[i].ID) {
				t.Fatalf("trial %d: %s over the image: node %d differs", trial, expr, i)
			}
		}
	}
}
