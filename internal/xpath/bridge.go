package xpath

import (
	"fmt"

	"xivm/internal/pattern"
)

// This file bridges the XPath dialect onto the paper's tree-pattern dialect
// P, so ad-hoc queries can be answered from materialized views by
// internal/rewrite. Only a subset of XPath is expressible as a tree
// pattern: child and descendant axes over named steps, existence and
// value-equality predicates (which become pattern branches), and
// conjunctions thereof. Everything else — disjunction, positional tests,
// count()/contains()/starts-with(), wildcards, text() tests, sibling axes —
// is reported with a typed NotExpressibleError so callers can fall back to
// direct evaluation.

// NotExpressibleError reports that a path has no tree-pattern equivalent,
// naming the construct that broke the translation.
type NotExpressibleError struct {
	Reason string
}

func (e *NotExpressibleError) Error() string {
	return "xpath: not expressible as a tree pattern: " + e.Reason
}

func notExpressible(format string, args ...any) error {
	return &NotExpressibleError{Reason: fmt.Sprintf(format, args...)}
}

// ToPattern converts an absolute path to an equivalent tree pattern whose
// result node (the last spine step) stores ID and val — exactly what a
// serving layer needs to rebuild (id, label, value) matches from view rows.
//
// The translation preserves match semantics node-for-node:
//
//   - a leading /x anchors the pattern root (only the document root
//     matches), a leading //x leaves it descendant-anchored;
//   - each predicate [p] becomes a branch child of its step's node —
//     existence paths as plain chains, path="lit" comparisons as chains
//     whose final node carries the pattern's [val=lit] filter, and "and"
//     as multiple branches;
//   - attribute steps map onto the store's "@name" labels, but only as
//     leaves (attributes have no element children for deeper steps to
//     bind).
//
// The distinct result-node IDs of the pattern's embeddings, in document
// order, equal Eval's match list — rewrite projection dedups by ID and
// sorts by Dewey key, which is order-isomorphic to document order.
func ToPattern(p Path) (*pattern.Pattern, error) {
	if len(p.Steps) == 0 {
		return nil, notExpressible("empty path")
	}
	var root, cur *pattern.Node
	for i := range p.Steps {
		st := &p.Steps[i]
		n, err := stepNode(st, len(p.Steps)-1-i)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			root = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	cur.Store = pattern.StoreID | pattern.StoreVal
	pat, err := pattern.New(root)
	if err != nil {
		// Only the 64-node limit can fail here; treat it as inexpressible so
		// callers fall back rather than erroring out.
		return nil, notExpressible("%v", err)
	}
	return pat, nil
}

// stepNode converts one step (axis, test, predicates) to a pattern node.
// stepsBelow is how many spine steps follow it — attribute steps are only
// expressible as leaves.
func stepNode(st *Step, stepsBelow int) (*pattern.Node, error) {
	n := &pattern.Node{}
	switch st.Axis {
	case Child:
		n.Desc = false
	case Descendant:
		n.Desc = true
	default:
		return nil, notExpressible("sibling axis %q", appendStepName(nil, *st))
	}
	switch st.Kind {
	case TestName:
		n.Label = st.Name
	case TestAttr:
		if stepsBelow > 0 || len(st.Preds) > 0 {
			return nil, notExpressible("attribute step @%s with steps or predicates below it", st.Name)
		}
		n.Label = "@" + st.Name
	case TestWildcard:
		return nil, notExpressible("wildcard step")
	default:
		return nil, notExpressible("text() step")
	}
	for _, pred := range st.Preds {
		if err := addPredicate(n, pred); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// addPredicate grafts one predicate expression onto ctx as pattern
// branches (or a [val=c] filter on ctx itself).
func addPredicate(ctx *pattern.Node, e Expr) error {
	switch x := e.(type) {
	case AndExpr:
		if err := addPredicate(ctx, x.Left); err != nil {
			return err
		}
		return addPredicate(ctx, x.Right)
	case ExistsExpr:
		branch, _, err := relChain(x.Path)
		if err != nil {
			return err
		}
		ctx.Children = append(ctx.Children, branch)
		return nil
	case EqExpr:
		if len(x.Path.Steps) == 0 {
			// ".=lit" filters the context node itself.
			return setValPred(ctx, x.Lit)
		}
		branch, leaf, err := relChain(x.Path)
		if err != nil {
			return err
		}
		if err := setValPred(leaf, x.Lit); err != nil {
			return err
		}
		ctx.Children = append(ctx.Children, branch)
		return nil
	case OrExpr:
		return notExpressible("disjunction")
	case PosExpr, LastExpr:
		return notExpressible("positional predicate")
	case CountExpr:
		return notExpressible("count() predicate")
	case ContainsExpr:
		if x.Prefix {
			return notExpressible("starts-with() predicate")
		}
		return notExpressible("contains() predicate")
	default:
		return notExpressible("unknown predicate %T", e)
	}
}

// setValPred installs [val=lit] on n, rejecting a second conflicting value
// (two different equalities on one node are unsatisfiable in XPath terms
// only when the node is a leaf — the pattern dialect cannot tell, so the
// translation refuses rather than guess).
func setValPred(n *pattern.Node, lit string) error {
	if n.HasPred && n.PredVal != lit {
		return notExpressible("conflicting value predicates %q and %q", n.PredVal, lit)
	}
	n.HasPred = true
	n.PredVal = lit
	return nil
}

// relChain converts a predicate's relative path to a branch chain,
// returning its first node (to graft onto the context) and its last (for a
// value filter). Nested predicates recurse through stepNode.
func relChain(p Path) (first, last *pattern.Node, err error) {
	if len(p.Steps) == 0 {
		return nil, nil, notExpressible("empty predicate path")
	}
	for i := range p.Steps {
		n, err := stepNode(&p.Steps[i], len(p.Steps)-1-i)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = n
		} else {
			last.Children = append(last.Children, n)
		}
		last = n
	}
	return first, last, nil
}
