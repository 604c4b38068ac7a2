// Package update implements the paper's XQuery Update subset: statement-
// level deletions (delete q) and insertions (insert xml into q, and the
// for-bound form for $x in q insert xml into $x), pending update list
// computation (compute-pul), side-effecting application against a document
// (apply-insert / apply-delete), and ∆+/∆− delta-table
// extraction (algorithms CD+ and CD−).
package update

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/lru"
	"xivm/internal/qvm"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// A target is a statement path's compiled program and the path parsed from
// the text it is cached under, shared by every statement that names that
// text: neither is written after it is made, and the path's steps are
// capped, so an append to them copies. An entry made for a path built in
// code holds no path, since that one is its caller's to change.
type target struct {
	path xpath.Path
	prog *qvm.Program
}

// holds reports whether p is t's path itself, not a copy changed since or
// another path: a statement whose Target was replaced after Parse does not
// run the program of the path it was parsed with.
func (t *target) holds(p xpath.Path) bool {
	return t != nil && len(p.Steps) == len(t.path.Steps) && len(p.Steps) > 0 && &p.Steps[0] == &t.path.Steps[0]
}

// targets caches statement paths by their text: workloads re-issue the same
// target shapes (the serve loop, the load generator, replayed WALs), so a
// hit costs neither a parse nor a compile. Parse keys a path by its text in
// the statement; a path with no text of its own (a statement built
// programmatically) is keyed by its rendering, which parses to the same
// path. Entries are immutable: no invalidation.
var targets = struct {
	sync.Mutex
	lru *lru.Cache[string, *target]
}{lru: lru.New[string, *target](512)}

// cachedTarget returns the entry for a path's text, or nil.
func cachedTarget(text string) *target {
	targets.Lock()
	defer targets.Unlock()
	t, _ := targets.lru.Get(text)
	return t
}

// compileTarget compiles p and caches it under text, holding path. A path
// the compiler rejects is not cached: its error is the statement's when it
// runs.
func compileTarget(text string, p, path xpath.Path) (*target, error) {
	prog, err := qvm.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("update: target path %s: %w", p, err)
	}
	t := &target{path: path, prog: prog}
	targets.Lock()
	targets.lru.Put(strings.Clone(text), t)
	targets.Unlock()
	return t, nil
}

// parseTarget parses a path cut out of a statement, through the cache.
func parseTarget(text string) (xpath.Path, *target, error) {
	if t := cachedTarget(text); t != nil && t.path.Steps != nil {
		return t.path, t, nil
	}
	p, err := xpath.Parse(text)
	if err != nil {
		return xpath.Path{}, nil, err
	}
	t, err := compileTarget(text, p, xpath.Path{Steps: p.Steps[:len(p.Steps):len(p.Steps)]})
	if err != nil {
		return p, nil, nil // the statement fails when it runs
	}
	return t.path, t, nil
}

// evalTarget evaluates a statement path with its compiled program: t's when
// p is t's path, else the one cached under p's rendering. The interpreter
// in internal/xpath is the tests' oracle, not a fallback.
func evalTarget(d *xmltree.Document, p xpath.Path, t *target) ([]*xmltree.Node, error) {
	if !t.holds(p) {
		key := p.String()
		if t = cachedTarget(key); t == nil {
			var err error
			if t, err = compileTarget(key, p, xpath.Path{}); err != nil {
				return nil, err
			}
		}
	}
	return t.prog.Eval(d), nil
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

	// target and copyOf are the cache entries Parse found Target and
	// CopyOf in; nil for a statement built programmatically.
	target, copyOf *target
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
	// path, so it shares its parsed and compiled entry too.
	delStmt := &Statement{Kind: Delete, Target: st.Target, Source: st.Source, target: st.target}
	del, err = ComputePUL(d, delStmt)
	if err != nil {
		return nil, nil, err
	}
	ins = &PUL{Kind: Insert}
	for _, n := range del.Deletes {
		ins.Inserts = append(ins.Inserts, PendingInsert{Target: d.NodeByID(n.ID().Parent()), Trees: st.Forest})
	}
	return del, ins, nil
}

// ComputePUL implements compute-pul(u): it evaluates the statement's target
// path on the document and expands the statement into node-level entries.
// For deletions, targets nested under other targets are dropped (deleting
// the ancestor already removes them). Replace statements must go through
// ExpandReplace instead.
func ComputePUL(d *xmltree.Document, st *Statement) (*PUL, error) {
	pul := new(PUL)
	if err := pul.Compute(d, st); err != nil {
		return nil, err
	}
	return pul, nil
}

// Compute is ComputePUL into pul, reusing its arrays: what pul listed
// before is gone.
func (pul *PUL) Compute(d *xmltree.Document, st *Statement) error {
	pul.Reset()
	if st.Kind == Replace {
		return fmt.Errorf("update: replace statements expand via ExpandReplace")
	}
	targets, err := evalTarget(d, st.Target, st.target)
	if err != nil {
		return err
	}
	pul.Kind = st.Kind
	switch st.Kind {
	case Delete:
		slices.SortFunc(targets, func(a, b *xmltree.Node) int { return a.ID().Compare(b.ID()) })
		for _, n := range targets {
			if n == d.Root {
				return fmt.Errorf("update: cannot delete the document root")
			}
			// Targets are in document order, so all descendants of a kept
			// target follow it contiguously: checking the last kept target
			// suffices.
			if k := len(pul.Deletes); k > 0 && pul.Deletes[k-1].ID().IsAncestorOf(n.ID()) {
				continue
			}
			pul.Deletes = append(pul.Deletes, n)
		}
	case Insert:
		forest := st.Forest
		if st.CopyOf != nil {
			copied, err := evalTarget(d, *st.CopyOf, st.copyOf)
			if err != nil {
				return err
			}
			forest = append(forest, copied...)
		}
		if len(forest) == 0 {
			return fmt.Errorf("update: insertion with empty forest")
		}
		for _, n := range targets {
			if n.Kind != xmltree.Element {
				continue
			}
			pul.Inserts = append(pul.Inserts, PendingInsert{Target: n, Trees: forest})
		}
	}
	return nil
}

// Reset empties the list, keeping its arrays and letting go of the nodes
// they held.
func (pul *PUL) Reset() {
	clear(pul.Inserts[:cap(pul.Inserts)])
	clear(pul.Deletes[:cap(pul.Deletes)])
	pul.Kind, pul.Inserts, pul.Deletes = Insert, pul.Inserts[:0], pul.Deletes[:0]
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

// Apply executes the PUL against the document. The mutators keep the
// document's label index, which the canonical relations are read from, in
// step. Insertions return the copies carrying the IDs assigned in their new
// context, exactly the side-channel the maintenance algorithms consume.
func Apply(d *xmltree.Document, pul *PUL) (*Applied, error) {
	out := &Applied{Kind: pul.Kind}
	var err error
	switch pul.Kind {
	case Insert:
		out.InsertedRoots, out.Replaced, err = d.ApplyInsertions(pul.Inserts)
	case Delete:
		out.DeletedRoots, out.Replaced, err = d.ApplyDeleteBatch(pul.Deletes)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Labels is a prepared label set for CD+/CD−: every label it holds has a
// slot, the index of its ∆ table, fixed once given. Labels follow pattern
// conventions: "*" matches every element, "~word" every text node holding
// the word, any other label ("name", "@x", "#text") the nodes it names. The
// zero value is an empty set.
type Labels struct {
	plain []labelSlot // by find's order
	star  int         // slot of "*" plus one; 0 when the set lacks it
	words []labelSlot // by word
	n     int
}

type labelSlot struct {
	label string
	slot  int
}

// Add puts label in the set, unless it is there already, and returns its
// slot.
func (ls *Labels) Add(label string) int {
	word, isWord := strings.CutPrefix(label, "~")
	switch {
	case label == "*":
		if ls.star == 0 {
			ls.star = ls.next() + 1
		}
		return ls.star - 1
	case isWord:
		for _, w := range ls.words {
			if w.label == word {
				return w.slot
			}
		}
		s := ls.next()
		ls.words = append(ls.words, labelSlot{word, s})
		return s
	}
	i, ok := ls.find(label)
	if !ok {
		ls.plain = slices.Insert(ls.plain, i, labelSlot{label, ls.next()})
	}
	return ls.plain[i].slot
}

// find binary-searches the plain labels, ordered by length and then by
// bytes, so that most comparisons a walk makes compare two lengths. A
// tenant's set is a few dozen labels, held in a few hundred bytes where a
// map takes about a kilobyte.
func (ls *Labels) find(label string) (int, bool) {
	lo, hi := 0, len(ls.plain)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l := ls.plain[m].label; len(l) < len(label) || len(l) == len(label) && l < label {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(ls.plain) && ls.plain[lo].label == label
}

func (ls *Labels) next() int {
	ls.n++
	return ls.n - 1
}

// Delta is one forest's ∆ tables (CD+/CD−, Algorithm 2): per slot of a
// Labels set, the forest's nodes that slot's label matches, in document
// order. It is read-only once built, until the next Fill or Reset of the
// Delta it was built in, so any number of goroutines may read it, and
// Table hands its slices out capped: an append to one allocates rather
// than writing into the table.
type Delta struct {
	tables [][]algebra.Item // nil until a node matched a label
}

// deltaCap is the most items a table keeps across a Reset.
const deltaCap = 1 << 10

// Fill implements CD+/CD−: one walk of the affected subtree roots
// extracts into d the ∆ relation of every label in ls, reusing d's tables'
// arrays: what d held before is gone, and so is every Delta copied from it.
func (d *Delta) Fill(roots []*xmltree.Node, ls *Labels) {
	for i := range d.tables {
		d.tables[i] = d.tables[i][:0]
	}
	add := func(s int, n *xmltree.Node) {
		if len(d.tables) < ls.n {
			d.tables = append(d.tables, make([][]algebra.Item, ls.n-len(d.tables))...)
		}
		d.tables[s] = append(d.tables[s], algebra.Item{ID: n.ID(), Node: n})
	}
	for _, r := range roots {
		xmltree.Walk(r, func(n *xmltree.Node) bool {
			if i, ok := ls.find(n.Label()); ok {
				add(ls.plain[i].slot, n)
			}
			if ls.star > 0 && n.Kind == xmltree.Element {
				add(ls.star-1, n)
			}
			for _, w := range ls.words {
				if n.MatchesWord(w.label) {
					add(w.slot, n)
				}
			}
			return true
		})
	}
	for _, t := range d.tables {
		slices.SortFunc(t, func(a, b algebra.Item) int { return a.ID.Compare(b.ID) })
	}
}

// Reset empties the tables and lets go of the nodes they held, keeping
// arrays of up to deltaCap items for the next Fill.
func (d *Delta) Reset() {
	for i, t := range d.tables {
		clear(t[:cap(t)])
		if cap(t) > deltaCap {
			t = nil
		}
		d.tables[i] = t[:0]
	}
}

// Table returns the ∆ relation of a slot, capped at its length. A slot
// added to the set after the tables were built reads as empty.
func (d Delta) Table(slot int) []algebra.Item {
	if slot >= len(d.tables) {
		return nil
	}
	t := d.tables[slot]
	return t[:len(t):len(t)]
}
