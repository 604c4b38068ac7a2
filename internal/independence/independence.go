// Package independence implements a static view-update independence test in
// the spirit of the work the paper builds on (Benedikt & Cheney; Bidoit et
// al.): given a view's tree pattern and an update statement, decide —
// soundly, before touching any data — whether the update can possibly
// affect the view. Independent updates skip propagation entirely.
//
// The test is conservative: MayAffect never misses a real effect;
// Independent is only returned when provably safe. A DTD sharpens the
// analysis (descendant closures for deletions, ancestor chains across //
// steps); without one, deletions and wildcard-heavy paths usually stay
// MayAffect.
package independence

import (
	"xivm/internal/dtd"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// Verdict is the outcome of the static test.
type Verdict uint8

const (
	// MayAffect means the update could change the view (or the analysis
	// could not prove otherwise).
	MayAffect Verdict = iota
	// Independent means the update provably leaves the view unchanged —
	// rows, stored values/contents and derivation counts.
	Independent
)

func (v Verdict) String() string {
	if v == Independent {
		return "independent"
	}
	return "may-affect"
}

// Check decides whether st can affect the view pattern p. The DTD g is
// optional (nil); with it the analysis can bound the labels deletions can
// remove and the labels that may occur along // steps.
func Check(p *pattern.Pattern, st *update.Statement, g *dtd.DTD) Verdict {
	// Wildcard view nodes match anything; only a fully label-known view is
	// analyzable.
	for _, n := range p.Nodes {
		if n.Label == "*" {
			return MayAffect
		}
	}

	viewLabels := map[string]bool{}
	for _, n := range p.Nodes {
		viewLabels[n.Label] = true
	}

	// Labels of nodes the update adds or removes.
	var changed map[string]bool
	switch st.Kind {
	case update.Insert:
		if st.CopyOf != nil {
			// The copied forest's labels are data-dependent; with a DTD we
			// can bound them by the descendant closure of the source path's
			// possible terminal labels.
			if g == nil {
				return MayAffect
			}
			terms := terminalLabels(*st.CopyOf, g)
			if terms == nil {
				return MayAffect
			}
			changed = descClosure(terms, g)
		} else {
			changed = forestLabels(st.Forest)
		}
	case update.Delete:
		if g == nil {
			return MayAffect // descendants of the targets are unbounded
		}
		terms := terminalLabels(st.Target, g)
		if terms == nil {
			return MayAffect
		}
		changed = descClosure(terms, g)
	default:
		// Replace (and any future kind) is not analyzed: falling through
		// with an empty changed set would wrongly report Independent.
		return MayAffect
	}
	for l := range changed {
		if viewLabels[l] {
			return MayAffect
		}
	}

	// No tuple can appear or disappear. Stored contents (val/cont) and
	// value-predicate truth can still change if an annotated or predicated
	// view node can sit on or above a target. Bound the labels that can
	// occur at-or-above the targets.
	sensitive := map[string]bool{}
	for _, n := range p.Nodes {
		if n.HasPred || n.Store.Has(pattern.StoreVal) || n.Store.Has(pattern.StoreCont) {
			sensitive[n.Label] = true
		}
	}
	if len(sensitive) == 0 {
		return Independent
	}
	anc := ancestorLabels(st.Target, g)
	if anc == nil {
		return MayAffect
	}
	// For deletions the content change happens above the deleted node; for
	// insertions above (or at) the target. Either way the enclosing chain
	// is bounded by anc.
	for l := range anc {
		if sensitive[l] {
			return MayAffect
		}
	}
	return Independent
}

// forestLabels collects element and attribute labels of a literal forest.
func forestLabels(forest []*xmltree.Node) map[string]bool {
	out := map[string]bool{}
	for _, t := range forest {
		xmltree.Walk(t, func(n *xmltree.Node) bool {
			out[n.Label()] = true
			return true
		})
	}
	return out
}

// childGraph builds the label → possible-child-labels relation from a DTD.
func childGraph(g *dtd.DTD) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, l := range g.ElementLabels() {
		out[l] = g.PossibleChildren(l)
	}
	return out
}

// terminalLabels bounds the labels a path's result nodes can carry: nil
// means "unknown". The spine is walked over the DTD's child graph; // steps
// traverse any number of edges.
func terminalLabels(p xpath.Path, g *dtd.DTD) map[string]bool {
	if len(p.Steps) == 0 {
		return nil
	}
	last := p.Steps[len(p.Steps)-1]
	switch last.Kind {
	case xpath.TestName:
		return map[string]bool{last.Name: true}
	case xpath.TestAttr:
		return map[string]bool{"@" + last.Name: true}
	case xpath.TestText:
		return map[string]bool{"#text": true}
	}
	// Wildcard terminal: bound by reachability when a DTD is available.
	if g == nil {
		return nil
	}
	reach := chainLabels(p, g)
	return reach
}

// ancestorLabels bounds the labels that can appear at-or-above any node the
// path selects (including the node itself); nil means unknown. Without a
// DTD this is only known for pure /-paths with named steps.
func ancestorLabels(p xpath.Path, g *dtd.DTD) map[string]bool {
	// Sibling steps keep a path pure: a sibling node shares its ancestor
	// chain with the step before it, whose labels are all collected below,
	// so the result is still a sound superset of the at-or-above labels.
	pure := true
	for _, s := range p.Steps {
		if s.Axis == xpath.Descendant || s.Kind == xpath.TestWildcard {
			pure = false
			break
		}
	}
	if pure {
		out := map[string]bool{}
		for _, s := range p.Steps {
			switch s.Kind {
			case xpath.TestName:
				out[s.Name] = true
			case xpath.TestAttr:
				out["@"+s.Name] = true
			case xpath.TestText:
				out["#text"] = true
			}
		}
		return out
	}
	if g == nil {
		return nil
	}
	return chainLabels(p, g)
}

// chainLabels computes, over the DTD's child graph, every label that can
// occur on a root-to-target chain matching the path (labels of matched
// steps plus everything // steps can traverse).
func chainLabels(p xpath.Path, g *dtd.DTD) map[string]bool {
	graph := childGraph(g)
	root := g.DocumentRootLabel()
	if root == "" {
		return nil
	}
	out := map[string]bool{}
	// frontier: labels the previous step could be bound to.
	frontier := map[string]bool{"": true} // "" = virtual document node
	childrenOf := func(l string) map[string]bool {
		if l == "" {
			return map[string]bool{root: true}
		}
		return graph[l]
	}
	stepMatches := func(st xpath.Step, l string) bool {
		switch st.Kind {
		case xpath.TestName:
			return l == st.Name
		case xpath.TestWildcard:
			return l != "" && l[0] != '@' && l != "#text"
		}
		return false
	}
	for _, st := range p.Steps {
		if st.Kind == xpath.TestAttr || st.Kind == xpath.TestText {
			// DTD-as-CFG does not model attributes or mixed text precisely
			// enough to bound chains through them.
			return nil
		}
		if st.Axis != xpath.Child && st.Axis != xpath.Descendant {
			// Sibling axes move sideways, which the child-graph frontier
			// cannot track (it would need the parent's other children);
			// report unknown rather than an under-approximated chain.
			return nil
		}
		next := map[string]bool{}
		if st.Axis == xpath.Child {
			for f := range frontier {
				for c := range childrenOf(f) {
					if stepMatches(st, c) {
						next[c] = true
						out[c] = true
					}
				}
			}
		} else {
			// Descendant: close over the child graph, recording every label
			// traversed (it may lie on the chain).
			seen := map[string]bool{}
			var stack []string
			for f := range frontier {
				for c := range childrenOf(f) {
					if !seen[c] {
						seen[c] = true
						stack = append(stack, c)
					}
				}
			}
			for len(stack) > 0 {
				l := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				out[l] = true
				if stepMatches(st, l) {
					next[l] = true
				}
				for c := range childrenOf(l) {
					if !seen[c] {
						seen[c] = true
						stack = append(stack, c)
					}
				}
			}
		}
		if len(next) == 0 {
			return out // path matches nothing reachable; chain is what we saw
		}
		frontier = next
	}
	return out
}

// descClosure closes a label set over the DTD's child graph.
func descClosure(labels map[string]bool, g *dtd.DTD) map[string]bool {
	graph := childGraph(g)
	out := map[string]bool{}
	var stack []string
	for l := range labels {
		out[l] = true
		stack = append(stack, l)
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range graph[l] {
			if !out[c] {
				out[c] = true
				stack = append(stack, c)
			}
		}
	}
	return out
}
