package dtd

import (
	"fmt"
	"sort"

	"xivm/internal/xmltree"
)

// matchSeq reports whether the label sequence matches the (expanded)
// regular expression, via position-set simulation.
func matchSeq(r *re, seq []string) bool {
	end := advance(r, seq, map[int]bool{0: true})
	return end[len(seq)]
}

// advance maps a set of start positions to the set of positions reachable
// after consuming r.
func advance(r *re, seq []string, starts map[int]bool) map[int]bool {
	out := map[int]bool{}
	switch r.kind {
	case reEmpty, reText:
		for i := range starts {
			out[i] = true
		}
	case reSym:
		for i := range starts {
			if i < len(seq) && seq[i] == r.sym {
				out[i+1] = true
			}
		}
	case reCat:
		cur := starts
		for _, s := range r.subs {
			cur = advance(s, seq, cur)
			if len(cur) == 0 {
				return cur
			}
		}
		return cur
	case reAlt:
		for _, s := range r.subs {
			for i := range advance(s, seq, starts) {
				out[i] = true
			}
		}
	case reOpt:
		for i := range starts {
			out[i] = true
		}
		for i := range advance(r.subs[0], seq, starts) {
			out[i] = true
		}
	case reStar, rePlus:
		cur := map[int]bool{}
		if r.kind == reStar {
			for i := range starts {
				cur[i] = true
			}
		}
		// One mandatory pass for +, then iterate to fixpoint.
		frontier := starts
		for {
			next := advance(r.subs[0], seq, frontier)
			grew := false
			for i := range next {
				if !cur[i] {
					cur[i] = true
					grew = true
				}
			}
			if !grew {
				break
			}
			frontier = next
		}
		return cur
	}
	return out
}

// textOnly reports whether the content model forbids element children but
// allows text (contains a #text leaf and no symbol reachable without it).
func textOnly(r *re) bool {
	has := false
	walkRe(r, func(x *re) {
		if x.kind == reText {
			has = true
		}
	})
	return has
}

// childLabels extracts the element-children label sequence of a node.
func childLabels(n *xmltree.Node) []string {
	var out []string
	for k := n.Kids(); k.Next(); {
		if c := k.Node(); c.Kind == xmltree.Element {
			out = append(out, c.Label())
		}
	}
	return out
}

// ValidateTree checks the subtree rooted at n against the grammar. Elements
// without a rule are rejected.
func (d *DTD) ValidateTree(n *xmltree.Node) error {
	if n.Kind != xmltree.Element {
		return nil
	}
	model := d.content(n.Label())
	if model == nil {
		return fmt.Errorf("dtd: no rule for element %q", n.Label())
	}
	seq := childLabels(n)
	if !matchSeq(model, seq) {
		return fmt.Errorf("dtd: children %v of %q do not match its content model", seq, n.Label())
	}
	if textOnly(model) && len(seq) > 0 {
		return fmt.Errorf("dtd: text-only element %q has element children", n.Label())
	}
	for k := n.Kids(); k.Next(); {
		if err := d.ValidateTree(k.Node()); err != nil {
			return err
		}
	}
	return nil
}

// ValidateDocument checks the whole document, including the root label.
func (d *DTD) ValidateDocument(doc *xmltree.Document) error {
	if root := doc.Root.Label(); root != d.Root && !d.rootProduces(root) {
		return fmt.Errorf("dtd: root %q does not match grammar root %q", root, d.Root)
	}
	return d.ValidateTree(doc.Root)
}

// rootProduces reports whether the grammar's root symbol is a non-terminal
// producing the given element label (as in Figure 5, where d1 → AS makes
// d1 the document element and AS its content).
func (d *DTD) rootProduces(label string) bool {
	return label == d.Root
}

// CheckInsert decides whether inserting the forest as new last children of
// target could violate the schema: each inserted tree must be valid, and
// the target's extended child sequence must still match its content model.
func (d *DTD) CheckInsert(target *xmltree.Node, forest []*xmltree.Node) error {
	for _, t := range forest {
		if err := d.ValidateTree(t); err != nil {
			return fmt.Errorf("dtd: inserted tree invalid: %w", err)
		}
	}
	model := d.content(target.Label())
	if model == nil {
		return fmt.Errorf("dtd: no rule for insertion target %q", target.Label())
	}
	seq := childLabels(target)
	for _, t := range forest {
		if t.Kind == xmltree.Element {
			seq = append(seq, t.Label())
		}
	}
	if !matchSeq(model, seq) {
		return fmt.Errorf("dtd: inserting under %q yields children %v, violating its content model",
			target.Label(), seq)
	}
	return nil
}

// Constraint is one ∆+ co-occurrence implication derived from the grammar:
// if the update inserts an If-labeled node, it must also insert a
// Requires-labeled node (inside the same forest), since every valid If
// subtree contains one — Examples 3.9/3.10's "∆c = ∅ ⇒ ∆b = ∅",
// contrapositive form.
type Constraint struct {
	If       string
	Requires string
}

func (c Constraint) String() string {
	return fmt.Sprintf("∆%s ≠ ∅ ⇒ ∆%s ≠ ∅", c.If, c.Requires)
}

// Constraints derives all mandatory-descendant implications.
func (d *DTD) Constraints() []Constraint {
	var out []Constraint
	for _, l := range d.ElementLabels() {
		for req := range d.mandatoryDesc(l, map[string]bool{}) {
			out = append(out, Constraint{If: l, Requires: req})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].If != out[j].If {
			return out[i].If < out[j].If
		}
		return out[i].Requires < out[j].Requires
	})
	return out
}

// mandatoryDesc returns the labels that appear in every valid tree rooted
// at l (excluding l itself). Element-level recursion is cut by the visited
// set (a label forced to contain itself would admit no finite tree; we
// simply stop expanding there).
func (d *DTD) mandatoryDesc(l string, visiting map[string]bool) map[string]bool {
	out := map[string]bool{}
	if visiting[l] {
		return out
	}
	visiting[l] = true
	defer delete(visiting, l)
	model := d.content(l)
	if model == nil {
		return out
	}
	for m := range mandatorySyms(model) {
		out[m] = true
		for mm := range d.mandatoryDesc(m, visiting) {
			out[mm] = true
		}
	}
	return out
}

// mandatorySyms returns the symbols occurring in every word of the regex
// language.
func mandatorySyms(r *re) map[string]bool {
	switch r.kind {
	case reSym:
		return map[string]bool{r.sym: true}
	case reCat:
		out := map[string]bool{}
		for _, s := range r.subs {
			for m := range mandatorySyms(s) {
				out[m] = true
			}
		}
		return out
	case reAlt:
		out := mandatorySyms(r.subs[0])
		for _, s := range r.subs[1:] {
			next := mandatorySyms(s)
			for m := range out {
				if !next[m] {
					delete(out, m)
				}
			}
		}
		return out
	case rePlus:
		return mandatorySyms(r.subs[0])
	}
	return map[string]bool{}
}

// CheckDeltaConstraints applies the derived constraints to the label
// multiset of an insertion forest (the sizes of the would-be ∆+ tables),
// returning the violated constraints — the fast pre-check of Section 3.3.
func (d *DTD) CheckDeltaConstraints(deltaSizes map[string]int) []Constraint {
	var bad []Constraint
	for _, c := range d.Constraints() {
		if deltaSizes[c.If] > 0 && deltaSizes[c.Requires] == 0 {
			bad = append(bad, c)
		}
	}
	return bad
}

// DeltaSizes counts labels per inserted forest, for CheckDeltaConstraints.
func DeltaSizes(forest []*xmltree.Node) map[string]int {
	out := map[string]int{}
	for _, t := range forest {
		xmltree.Walk(t, func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Element {
				out[n.Label()]++
			}
			return true
		})
	}
	return out
}
