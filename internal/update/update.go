// Package update implements the paper's XQuery Update subset: statement-
// level deletions (delete q) and insertions (insert xml into q, and the
// for-bound form for $x in q insert xml into $x), pending update list
// computation (compute-pul), side-effecting application against a document
// and its store (apply-insert / apply-delete), and ∆+/∆− delta-table
// extraction (algorithms CD+ and CD−).
package update

import (
	"fmt"
	"sort"
	"strings"

	"xivm/internal/algebra"
	"xivm/internal/qvm"
	"xivm/internal/store"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// targetProgs caches compiled target-path programs keyed by the statement's
// source text — workloads re-issue the same statement shapes (the serve
// loop, the load generator, replayed WALs), and the source string is
// already in hand, so a hit skips compilation. A path with no source text
// of its own (a statement built programmatically, a copy-of source) is keyed
// by its rendering. Compiled programs are immutable: no invalidation.
var targetProgs = qvm.NewCache(512)

// evalTarget evaluates a statement path with its compiled program. The
// interpreter in internal/xpath is the tests' oracle, not a fallback.
func evalTarget(d *xmltree.Document, p xpath.Path, key string) ([]*xmltree.Node, error) {
	if key == "" {
		key = p.String()
	}
	prog, ok := targetProgs.Get(key)
	if !ok {
		var err error
		if prog, err = qvm.Compile(p); err != nil {
			return nil, fmt.Errorf("update: target path %s: %w", p, err)
		}
		targetProgs.Add(key, prog)
	}
	return prog.Eval(d), nil
}

// Kind distinguishes insertions from deletions.
type Kind uint8

const (
	// Insert adds a forest under each target node.
	Insert Kind = iota
	// Delete removes each target node (and, per XQuery Update semantics,
	// its whole subtree).
	Delete
	// Replace substitutes each target node with a forest: it expands into a
	// deletion of the target followed by an insertion of the forest under
	// the target's parent. (The replacement lands as the parent's last
	// children; views are insensitive to sibling positions beyond document
	// order, which stays consistent.)
	Replace
)

func (k Kind) String() string {
	switch k {
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	}
	return "insert"
}

// Statement is a parsed update statement.
type Statement struct {
	Kind   Kind
	Target xpath.Path      // the q selecting target nodes
	Forest []*xmltree.Node // template forest for insertions (cloned per target)
	CopyOf *xpath.Path     // for "insert q1 into q2": q1, copied from the document
	Source string
}

// String returns the original statement text.
func (s *Statement) String() string { return s.Source }

// PendingInsert is one pending-update-list entry for an insertion: the
// target node and the trees to copy under it.
type PendingInsert = xmltree.Insertion

// PUL is a pending update list per the XQuery Update Facility: the list of
// node-level operations a statement expands to.
type PUL struct {
	Kind    Kind
	Inserts []PendingInsert
	Deletes []*xmltree.Node
}

// Targets returns the number of target nodes.
func (p *PUL) Targets() int {
	if p.Kind == Delete {
		return len(p.Deletes)
	}
	return len(p.Inserts)
}

// ExpandReplace turns a replace statement into its delete + insert stages,
// both resolved against the current document (the deletion PUL carries the
// targets; the insertion PUL carries their parents, which the mutators
// find again by ID once the deletion has run).
func ExpandReplace(d *xmltree.Document, st *Statement) (del, ins *PUL, err error) {
	if st.Kind != Replace {
		return nil, nil, fmt.Errorf("update: ExpandReplace on %s statement", st.Kind)
	}
	if len(st.Forest) == 0 {
		return nil, nil, fmt.Errorf("update: replace with empty forest")
	}
	// The expansion's delete stage shares the replace statement's target
	// path, so it can share its compiled-program cache slot too.
	delStmt := &Statement{Kind: Delete, Target: st.Target, Source: st.Source}
	del, err = ComputePUL(d, delStmt)
	if err != nil {
		return nil, nil, err
	}
	ins = &PUL{Kind: Insert}
	for _, n := range del.Deletes {
		ins.Inserts = append(ins.Inserts, PendingInsert{Target: d.NodeByID(n.ID.Parent()), Trees: st.Forest})
	}
	return del, ins, nil
}

// ComputePUL implements compute-pul(u): it evaluates the statement's target
// path on the document and expands the statement into node-level entries.
// For deletions, targets nested under other targets are dropped (deleting
// the ancestor already removes them). Replace statements must go through
// ExpandReplace instead.
func ComputePUL(d *xmltree.Document, st *Statement) (*PUL, error) {
	if st.Kind == Replace {
		return nil, fmt.Errorf("update: replace statements expand via ExpandReplace")
	}
	targets, err := evalTarget(d, st.Target, st.Source)
	if err != nil {
		return nil, err
	}
	pul := &PUL{Kind: st.Kind}
	switch st.Kind {
	case Delete:
		sort.Slice(targets, func(i, j int) bool {
			return targets[i].ID.Compare(targets[j].ID) < 0
		})
		for _, n := range targets {
			if n == d.Root {
				return nil, fmt.Errorf("update: cannot delete the document root")
			}
			// Targets are in document order, so all descendants of a kept
			// target follow it contiguously: checking the last kept target
			// suffices.
			if k := len(pul.Deletes); k > 0 && pul.Deletes[k-1].ID.IsAncestorOf(n.ID) {
				continue
			}
			pul.Deletes = append(pul.Deletes, n)
		}
	case Insert:
		forest := st.Forest
		if st.CopyOf != nil {
			copied, err := evalTarget(d, *st.CopyOf, "")
			if err != nil {
				return nil, err
			}
			forest = append(forest, copied...)
		}
		if len(forest) == 0 {
			return nil, fmt.Errorf("update: insertion with empty forest")
		}
		for _, n := range targets {
			if n.Kind != xmltree.Element {
				continue
			}
			pul.Inserts = append(pul.Inserts, PendingInsert{Target: n, Trees: forest})
		}
	}
	return pul, nil
}

// Applied records the concrete effect of applying a PUL: the roots of the
// freshly inserted copies (with their new IDs) or of the detached subtrees,
// and the nodes of a published document that the mutation replaced by
// copies on its way down to them.
type Applied struct {
	Kind          Kind
	InsertedRoots []*xmltree.Node
	DeletedRoots  []*xmltree.Node
	// Replaced are the copies now in the tree in place of nodes an epoch
	// holds. The document's label index, which the canonical relations are
	// read from, lists them already; a node pointer taken before the
	// mutation may be to the node one of them replaced.
	Replaced []*xmltree.Node
}

// Apply executes the PUL against the document. The store's canonical
// relations are the document's label index, which the mutators keep in
// step; when s is non-nil it is told of the mutation, to drop the derived
// relations that went stale. Insertions return the copies carrying the IDs
// assigned in their new context, exactly the side-channel the maintenance
// algorithms consume.
func Apply(d *xmltree.Document, s *store.Store, pul *PUL) (*Applied, error) {
	out := &Applied{Kind: pul.Kind}
	var err error
	var roots []*xmltree.Node
	switch pul.Kind {
	case Insert:
		roots, out.Replaced, err = d.ApplyInsertions(pul.Inserts)
		out.InsertedRoots = roots
	case Delete:
		roots, out.Replaced, err = d.ApplyDeleteBatch(pul.Deletes)
		out.DeletedRoots = roots
	}
	if err != nil {
		return nil, err
	}
	if s != nil {
		s.Changed(out.Replaced, roots)
	}
	return out, nil
}

// Run parses nothing: it chains ComputePUL and Apply for a statement.
func Run(d *xmltree.Document, s *store.Store, st *Statement) (*PUL, *Applied, error) {
	pul, err := ComputePUL(d, st)
	if err != nil {
		return nil, nil, err
	}
	applied, err := Apply(d, s, pul)
	if err != nil {
		return pul, nil, err
	}
	return pul, applied, nil
}

// DeltaTables implements CD+/CD− (Algorithm 2): for each requested label it
// extracts, from the affected subtree roots, the ordered collection of
// matching nodes — the ∆ relation of that label. Labels follow pattern
// conventions: "*" collects all elements, "@x" attributes, "#text" text. A
// label no node of the forest matches has no entry in the result.
func DeltaTables(roots []*xmltree.Node, labels []string) map[string][]algebra.Item {
	want := make(map[string]bool, len(labels))
	var words []string
	star := false
	for _, l := range labels {
		switch {
		case l == "*":
			star = true
		case strings.HasPrefix(l, "~"):
			words = append(words, l[1:])
		default:
			want[l] = true
		}
	}
	out := make(map[string][]algebra.Item, len(labels))
	for _, r := range roots {
		xmltree.Walk(r, func(n *xmltree.Node) bool {
			if label := n.Label(); want[label] {
				out[label] = append(out[label], algebra.Item{ID: n.ID, Node: n})
			}
			if star && n.Kind == xmltree.Element {
				out["*"] = append(out["*"], algebra.Item{ID: n.ID, Node: n})
			}
			for _, w := range words {
				if n.MatchesWord(w) {
					out["~"+w] = append(out["~"+w], algebra.Item{ID: n.ID, Node: n})
				}
			}
			return true
		})
	}
	for l := range out {
		items := out[l]
		sort.Slice(items, func(i, j int) bool { return items[i].ID.Compare(items[j].ID) < 0 })
	}
	return out
}

// InsertionPoints returns the PUL's target nodes (the p_i of Proposition
// 3.8) for an insertion.
func (p *PUL) InsertionPoints() []*xmltree.Node {
	out := make([]*xmltree.Node, len(p.Inserts))
	for i, pi := range p.Inserts {
		out[i] = pi.Target
	}
	return out
}

// ForestString renders a forest template back to XML (for diagnostics).
func ForestString(forest []*xmltree.Node) string {
	var b strings.Builder
	for _, n := range forest {
		b.WriteString(n.Content())
	}
	return b.String()
}
