// Package pulopt re-implements, for the two update operations the paper
// retains (ins↘ — insert a forest after the last child — and del), the
// pending-update-list optimization rules of Cavalieri, Guerrini and Mesiti
// (EDBT 2011) that Section 5 interleaves with view maintenance: the
// reduction rules O1, O3 and I5, the conflict rules IO, LO and NLO for
// parallel integration, and the aggregation rules A1, A2 and D6 for
// sequential composition. Operations reference nodes by their Compact
// Dynamic Dewey IDs, exactly as the paper's framework encodes PULs.
package pulopt

import (
	"fmt"
	"strings"

	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/xmltree"
)

// Per-rule firing counters (nil *obs.Counter fields are no-op sinks). The
// optimizer rules are pure functions shared by every engine in the
// process, so the counters live at package level; SetMetrics must be
// called before concurrent use (typically once at startup).
var rules struct {
	o1, o3, i5  *obs.Counter // reduction
	io, lo, nlo *obs.Counter // parallel-integration conflicts
	a1a2, d6    *obs.Counter // sequential aggregation
}

// SetMetrics wires the per-rule firing counters (pulopt.rule.O1 … D6)
// into a registry.
func SetMetrics(m *obs.Metrics) {
	rules.o1 = m.Counter("pulopt.rule.O1")
	rules.o3 = m.Counter("pulopt.rule.O3")
	rules.i5 = m.Counter("pulopt.rule.I5")
	rules.io = m.Counter("pulopt.rule.IO")
	rules.lo = m.Counter("pulopt.rule.LO")
	rules.nlo = m.Counter("pulopt.rule.NLO")
	rules.a1a2 = m.Counter("pulopt.rule.A1A2")
	rules.d6 = m.Counter("pulopt.rule.D6")
}

func init() { SetMetrics(obs.Default()) }

// OpKind distinguishes the two supported elementary operations.
type OpKind uint8

const (
	// InsLast is ins↘(v, P): insert forest P after the last child of v.
	InsLast OpKind = iota
	// Del is del(v): delete node v (and its subtree).
	Del
)

func (k OpKind) String() string {
	if k == Del {
		return "del"
	}
	return "ins↘"
}

// Op is one elementary update operation of a PUL.
type Op struct {
	Kind   OpKind
	Target dewey.ID
	Forest []*xmltree.Node // InsLast only
}

// String renders the operation in the paper's notation.
func (o Op) String() string {
	if o.Kind == Del {
		return fmt.Sprintf("del(%v)", o.Target)
	}
	var b strings.Builder
	for _, t := range o.Forest {
		b.WriteString(t.Content())
	}
	return fmt.Sprintf("ins↘(%v, %s)", o.Target, b.String())
}

// Seq is an ordered sequence of elementary operations (a PUL).
type Seq []Op

// Reduce applies the reduction rules (stage ∇1) until fixpoint:
//
//	O1: op(n,·) followed by del(n)            → keep only the deletion.
//	O3: op(n,·) followed by del(n′), n′ ≺≺ n  → keep only the deletion.
//	I5: ins↘(n,L1) … ins↘(n,L2)               → ins↘(n,[L1,L2]).
//
// Relative order of surviving operations is preserved; merged insertions
// stay at the position of the first insertion on the node.
func Reduce(ops Seq) Seq {
	// O1/O3: an operation dies if a LATER deletion targets the same node
	// (O1) or an ancestor of it (O3). A later deletion of a descendant does
	// not remove an earlier insertion.
	alive := make([]bool, len(ops))
	for i := range alive {
		alive[i] = true
	}
	for i, op := range ops {
		for j := i + 1; j < len(ops); j++ {
			later := ops[j]
			if later.Kind != Del {
				continue
			}
			if later.Target.Equal(op.Target) {
				rules.o1.Inc()
				alive[i] = false
				break
			}
			if later.Target.IsAncestorOf(op.Target) {
				rules.o3.Inc()
				alive[i] = false
				break
			}
		}
	}
	// I5: merge insertions on the same target into the earliest surviving
	// insertion they can safely commute back to. Merging ins↘(n,L2) into an
	// earlier ins↘(n,L1) moves L2's effect before every operation between the
	// two, so the merge is only taken when all of those intervening survivors
	// commute with an insertion on n (they touch neither n nor its subtree).
	// When an intervening operation blocks the merge, the later insertion
	// becomes the new merge anchor for n.
	firstIns := map[string]int{} // target key -> index in out
	var out Seq
	for i, op := range ops {
		if !alive[i] {
			continue
		}
		if op.Kind == InsLast {
			k := op.Target.Key()
			if at, ok := firstIns[k]; ok && commutesWithInsertAll(out[at+1:], op.Target) {
				rules.i5.Inc()
				merged := out[at]
				merged.Forest = append(append([]*xmltree.Node{}, merged.Forest...), op.Forest...)
				out[at] = merged
				continue
			}
			firstIns[k] = len(out)
		}
		out = append(out, op)
	}
	return out
}

// commutesWithInsert reports whether operation a can be reordered past an
// insertion on node n without changing the final document. An operation on
// n itself or inside n's subtree can change which node is n's last child —
// or resolve a node the insertion creates — so the insertion's effect
// depends on their relative order; a deletion of an ancestor of n removes n
// itself, turning a later insertion on n into a no-op. Operations elsewhere
// (including insertions into ancestors of n, which append children beside
// n, never inside it) are independent of the insertion.
func commutesWithInsert(a Op, n dewey.ID) bool {
	if a.Target.Equal(n) || n.IsAncestorOf(a.Target) {
		return false
	}
	return a.Kind != Del || !a.Target.IsAncestorOf(n)
}

func commutesWithInsertAll(ops Seq, n dewey.ID) bool {
	for _, a := range ops {
		if !commutesWithInsert(a, n) {
			return false
		}
	}
	return true
}

// Conflict reports one rule violation found while integrating two PULs to
// be executed in parallel.
type Conflict struct {
	Rule string // "IO", "LO" or "NLO"
	A, B Op
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s: %v / %v", c.Rule, c.A, c.B)
}

// Integrate merges two PULs intended to run in parallel, reporting the
// conflicts identified by the rules:
//
//	IO:  two ins↘ on the same target — result depends on execution order.
//	LO:  del in one PUL and ins↘ on the same target in the other — the
//	     deletion is locally overridden.
//	NLO: del whose target is an ancestor of the other PUL's ins↘ target —
//	     non-local override.
//
// The merged sequence (∆1 then ∆2) is returned regardless; callers decide,
// per their conflict-resolution policy, whether to proceed.
func Integrate(d1, d2 Seq) (Seq, []Conflict) {
	var conflicts []Conflict
	for _, a := range d1 {
		for _, b := range d2 {
			switch {
			case a.Kind == InsLast && b.Kind == InsLast && a.Target.Equal(b.Target):
				rules.io.Inc()
				conflicts = append(conflicts, Conflict{Rule: "IO", A: a, B: b})
			case a.Kind == Del && b.Kind == InsLast && a.Target.Equal(b.Target):
				rules.lo.Inc()
				conflicts = append(conflicts, Conflict{Rule: "LO", A: a, B: b})
			case a.Kind == InsLast && b.Kind == Del && b.Target.Equal(a.Target):
				rules.lo.Inc()
				conflicts = append(conflicts, Conflict{Rule: "LO", A: b, B: a})
			case a.Kind == Del && b.Kind == InsLast && a.Target.IsAncestorOf(b.Target):
				rules.nlo.Inc()
				conflicts = append(conflicts, Conflict{Rule: "NLO", A: a, B: b})
			case a.Kind == InsLast && b.Kind == Del && b.Target.IsAncestorOf(a.Target):
				rules.nlo.Inc()
				conflicts = append(conflicts, Conflict{Rule: "NLO", A: b, B: a})
			}
		}
	}
	merged := append(append(Seq{}, d1...), d2...)
	return merged, conflicts
}

// Aggregate composes two PULs to be executed sequentially (∆1 on the
// original document, ∆2 on the result), applying:
//
//	A1/A2: insertions on the same node are combined into one operation.
//	D6:    a ∆2 operation whose target lies inside a tree inserted by a ∆1
//	       operation is applied directly to that parameter tree and removed
//	       from ∆2.
//
// D6 resolves the ∆2 target inside the inserted forest by its label path
// below the insertion point (position among equal-labeled siblings follows
// ordinal rank), a faithful approximation of the original ID-based
// addressing.
// Both merges relocate the ∆2 operation before everything that would
// otherwise run between the merge point and the end of the combined
// sequence, so they are only taken when every one of those intervening
// operations commutes with an insertion on the ∆2 target; otherwise the
// operation stays in place and the sequences simply concatenate.
func Aggregate(d1, d2 Seq) Seq {
	out := append(Seq{}, d1...)
	var rest Seq
	for _, op2 := range d2 {
		if op2.Kind == InsLast {
			// A1/A2: same-target insertions merge.
			mergedIn := false
			for i, op1 := range out {
				if op1.Kind == InsLast && op1.Target.Equal(op2.Target) {
					if !commutesWithInsertAll(out[i+1:], op2.Target) || !commutesWithInsertAll(rest, op2.Target) {
						break
					}
					rules.a1a2.Inc()
					op1.Forest = append(append([]*xmltree.Node{}, op1.Forest...), op2.Forest...)
					out[i] = op1
					mergedIn = true
					break
				}
			}
			if mergedIn {
				continue
			}
			// D6: target inside a tree inserted by ∆1.
			if spliced := spliceIntoInserted(out, rest, op2); spliced {
				rules.d6.Inc()
				continue
			}
		}
		rest = append(rest, op2)
	}
	return append(out, rest...)
}

// spliceIntoInserted finds a ∆1 insertion whose target is a proper ancestor
// of op2's target, resolves the residual label path inside its forest, and
// appends op2's forest there. The splice is only taken when every operation
// that would otherwise run between the host insertion and op2 (the rest of
// d1 plus the already-deferred tail) commutes with an insertion on op2's
// target. The host forest is copy-on-write: the caller's original trees are
// never mutated — the op is rewritten to point at a spliced clone. It
// reports whether the splice happened.
func spliceIntoInserted(d1, tail Seq, op2 Op) bool {
	for i, op1 := range d1 {
		if op1.Kind != InsLast || !op1.Target.IsAncestorOf(op2.Target) {
			continue
		}
		// Only a SYMBOLIC residual path — steps carrying no ordinal, the
		// paper's addressing for nodes the ∆1 parameter tree has not yet
		// materialized — can denote a node inside the inserted forest. Steps
		// with concrete ordinals identify nodes of the stored document (a
		// pre-existing descendant of the insertion point); those operations
		// must stay in place and resolve against the store after ∆1 runs.
		rel, symbolic := symbolicPath(op1.Target, op2.Target)
		if !symbolic {
			continue
		}
		if !commutesWithInsertAll(d1[i+1:], op2.Target) || !commutesWithInsertAll(tail, op2.Target) {
			return false
		}
		if resolveInForest(op1.Forest, rel) == nil {
			continue
		}
		forest := make([]*xmltree.Node, len(op1.Forest))
		for j, t := range op1.Forest {
			forest[j] = t.Clone()
		}
		node := resolveInForest(forest, rel)
		for _, t := range op2.Forest {
			node.Children = append(node.Children, t.Clone())
		}
		op1.Forest = forest
		d1[i] = op1
		return true
	}
	return false
}

// symbolicPath returns the labels of desc's steps below its ancestor anc,
// and whether every one of those steps carries no ordinal — i.e. desc
// addresses a node by label path only, which can only be satisfied inside a
// not-yet-materialized parameter tree.
func symbolicPath(anc, desc dewey.ID) ([]string, bool) {
	var labels []string
	for c := desc.Cursor(); c.Next(); {
		if len(c.Key()) <= len(anc.Key()) {
			continue
		}
		if len(c.Step().Ord) != 0 {
			return nil, false
		}
		labels = append(labels, c.Label())
	}
	return labels, true
}

// resolveInForest walks the label path into the forest: at each level the
// first tree/child carrying the label is taken.
func resolveInForest(forest []*xmltree.Node, labels []string) *xmltree.Node {
	if len(labels) == 0 {
		return nil
	}
	for _, t := range forest {
		if t.Label() != labels[0] {
			continue
		}
		node := t
		ok := true
		for _, l := range labels[1:] {
			var next *xmltree.Node
			for _, c := range node.Children {
				if c.Label() == l {
					next = c
					break
				}
			}
			if next == nil {
				ok = false
				break
			}
			node = next
		}
		if ok {
			return node
		}
	}
	return nil
}
