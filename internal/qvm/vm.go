package qvm

import (
	"strings"
	"sync"

	"xivm/internal/dewey"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// Machine holds the reusable evaluation state for running programs: a free
// list of node buffers sized by past evaluations. A Machine is not safe for
// concurrent use; Program.Eval draws machines from an internal pool, and
// callers with a hot loop can hold their own via NewMachine.
type Machine struct {
	free [][]*xmltree.Node
	// doc is the document under evaluation: a leading descendant step
	// answers from its label index instead of walking the tree, and sibling
	// axes find parents through its root.
	doc *xmltree.Document
	// par is the last parent resolved for a sibling axis — nodes carry no
	// parent pointer: context nodes arrive in document order, so
	// consecutive ones mostly share it.
	par *xmltree.Node
}

// bind points the machine at the document of the next evaluation.
func (m *Machine) bind(d *xmltree.Document) {
	m.doc, m.par = d, nil
}

// siblings returns the child list ctx sits in and its position there, or
// nil for a root. The parent is found through the document's root
// (xmltree.ParentIn), with no allocation.
func (m *Machine) siblings(ctx *xmltree.Node) ([]*xmltree.Node, int) {
	par := m.par
	if par == nil || !par.ID.IsParentOf(ctx.ID) {
		par = xmltree.ParentIn(m.doc.Root, ctx)
		m.par = par
	}
	if par == nil {
		return nil, 0
	}
	return par.Children, xmltree.ChildIndex(par, ctx.ID.Key())
}

// NewMachine returns an empty machine.
func NewMachine() *Machine { return &Machine{} }

var machinePool = sync.Pool{New: func() any { return NewMachine() }}

func (m *Machine) getBuf() []*xmltree.Node {
	if n := len(m.free); n > 0 {
		b := m.free[n-1]
		m.free = m.free[:n-1]
		return b[:0]
	}
	return make([]*xmltree.Node, 0, 16)
}

func (m *Machine) putBuf(b []*xmltree.Node) {
	m.free = append(m.free, b)
}

// Eval runs an absolute program over the document, returning matches in
// document order without duplicates. The result slice is freshly allocated
// and owned by the caller.
func (p *Program) Eval(d *xmltree.Document) []*xmltree.Node {
	m := machinePool.Get().(*Machine)
	out := p.EvalInto(m, d, nil)
	m.bind(nil) // don't pin the document from the pool
	machinePool.Put(m)
	return out
}

// EvalInto appends the program's matches to dst using the caller's machine,
// avoiding all steady-state allocations beyond dst growth.
func (p *Program) EvalInto(m *Machine, d *xmltree.Document, dst []*xmltree.Node) []*xmltree.Node {
	m.bind(d)
	return m.runSeg(p, 0, d.Root, p.FromDoc, dst)
}

// Exists reports whether the program has at least one match, stopping at
// the first witness when the program is free of positional predicates.
func (p *Program) Exists(d *xmltree.Document) bool {
	m := machinePool.Get().(*Machine)
	m.bind(d)
	defer func() {
		m.bind(nil)
		machinePool.Put(m)
	}()
	if !p.mainSimple() {
		buf := m.getBuf()
		buf = p.EvalInto(m, d, buf)
		ok := len(buf) > 0
		m.putBuf(buf)
		return ok
	}
	in := &p.Instrs[0]
	root := d.Root
	if !p.FromDoc {
		return m.segAny(p, 0, root, modeExists, "")
	}
	switch in.Op.axis() {
	case axChild:
		return m.stepAccept(p, in, root) && m.segAny(p, 1, root, modeExists, "")
	case axDesc:
		// The label index turns the witness hunt into a scan of the
		// step's own matches instead of a whole-tree walk.
		if cands, ok := m.indexed(p, in); ok {
			found := false
			cands.Each(func(n *xmltree.Node) bool {
				found = m.stepAccept(p, in, n) && m.segAny(p, 1, n, modeExists, "")
				return !found
			})
			return found
		}
		if m.stepAccept(p, in, root) && m.segAny(p, 1, root, modeExists, "") {
			return true
		}
		return m.descAny(p, 0, in, root, modeExists, "")
	}
	return false // sibling axes from the virtual document node
}

// mainSimple reports whether the main segment has no grouped steps.
func (p *Program) mainSimple() bool {
	for pc := 0; p.Instrs[pc].Op != opEnd; pc++ {
		if p.Instrs[pc].C&stepGrouped != 0 {
			return false
		}
	}
	return true
}

// runSeg executes the path segment at pc from start, appending the final
// matches to dst. When fromDoc is set the first step is evaluated against
// the virtual document node.
func (m *Machine) runSeg(p *Program, pc int, start *xmltree.Node, fromDoc bool, dst []*xmltree.Node) []*xmltree.Node {
	cur := m.getBuf()
	next := m.getBuf()
	cur = append(cur, start)
	first := fromDoc
	for {
		in := &p.Instrs[pc]
		if in.Op == opEnd {
			dst = append(dst, cur...)
			break
		}
		next = next[:0]
		nblocks := int(in.C >> predCountShift)
		if in.B >= 0 && in.C&stepGrouped != 0 {
			// Positional predicates: build and filter each context node's
			// match group independently, then merge.
			if first {
				base := len(next)
				next = m.gather(p, in, nil, start, next)
				next = m.filterGroup(p, in, next, base)
			} else {
				for _, c := range cur {
					base := len(next)
					next = m.gather(p, in, c, nil, next)
					next = m.filterGroup(p, in, next, base)
				}
			}
			next = sortDedup(next)
		} else {
			// Batched path: gather everything, dedup once, and (with no
			// positional tests) filter each distinct node once, however
			// many groups it appeared in.
			if first {
				next = m.gather(p, in, nil, start, next)
			} else {
				for _, c := range cur {
					next = m.gather(p, in, c, nil, next)
				}
			}
			next = sortDedup(next)
			if in.B >= 0 {
				kept := next[:0]
				for _, n := range next {
					if m.runChain(p, int(in.B), nblocks, n, 0, 0) {
						kept = append(kept, n)
					}
				}
				next = kept
			}
		}
		if len(next) == 0 {
			break
		}
		cur, next = next, cur
		first = false
		pc++
	}
	m.putBuf(cur)
	m.putBuf(next)
	return dst
}

// filterGroup applies the step's predicate blocks sequentially to the
// match group next[base:], re-indexing positions after each block.
func (m *Machine) filterGroup(p *Program, in *Instr, next []*xmltree.Node, base int) []*xmltree.Node {
	blockPC := int(in.B)
	nblocks := int(in.C >> predCountShift)
	for b := 0; b < nblocks; b++ {
		group := next[base:]
		size := len(group)
		kept := base
		for i, n := range group {
			ok, _ := m.runBlock(p, blockPC, n, i+1, size)
			if ok {
				next[kept] = n
				kept++
			}
		}
		next = next[:kept]
		blockPC = blockEnd(p, blockPC)
	}
	return next
}

// blockEnd returns the pc just past the block's pRet. Jump targets never
// cross a pRet, so a linear scan is exact.
func blockEnd(p *Program, pc int) int {
	for p.Instrs[pc].Op != pRet {
		pc++
	}
	return pc + 1
}

// indexed resolves a descendant step from the virtual document node against
// the document's label index: exact-label tests (name, attribute, text) are
// the index entry verbatim. Wildcard and word tests fall back to the walk.
// The returned chunks are the index's own — callers must only read them.
func (m *Machine) indexed(p *Program, in *Instr) (dewey.Chunks[*xmltree.Node], bool) {
	switch in.Op.test() {
	case tsName, tsAttr:
		// Attribute names are pooled with their "@" prefix, as Node.Label
		// returns them, so both tests share the lookup.
		return m.doc.LabeledChunks(p.Names[in.A]), true
	case tsText:
		return m.doc.LabeledChunks(xmltree.TextLabel), true
	}
	return nil, false
}

// gather appends the nodes selected by the step from one context. A nil
// ctx with non-nil docRoot denotes the virtual document node.
func (m *Machine) gather(p *Program, in *Instr, ctx, docRoot *xmltree.Node, dst []*xmltree.Node) []*xmltree.Node {
	if docRoot != nil {
		switch in.Op.axis() {
		case axChild:
			if p.match(in, docRoot) {
				dst = append(dst, docRoot)
			}
		case axDesc:
			// A leading descendant step with an exact label test is the
			// document's label index verbatim (same document order the
			// walk below would produce), in O(matches) instead of
			// O(document).
			if nodes, ok := m.indexed(p, in); ok {
				return nodes.AppendTo(dst)
			}
			if p.match(in, docRoot) {
				dst = append(dst, docRoot)
			}
			dst = appendDesc(p, in, docRoot, dst)
		}
		// Sibling axes from the virtual document node match nothing.
		return dst
	}
	switch in.Op.axis() {
	case axChild:
		for _, ch := range ctx.Children {
			if p.match(in, ch) {
				dst = append(dst, ch)
			}
		}
	case axDesc:
		dst = appendDesc(p, in, ctx, dst)
	case axFollowing:
		sibs, at := m.siblings(ctx)
		for i := at + 1; i < len(sibs); i++ {
			if p.match(in, sibs[i]) {
				dst = append(dst, sibs[i])
			}
		}
	case axPreceding:
		// Nearest-first group order: [1] is the immediately preceding
		// sibling.
		sibs, at := m.siblings(ctx)
		for i := at - 1; i >= 0; i-- {
			if p.match(in, sibs[i]) {
				dst = append(dst, sibs[i])
			}
		}
	}
	return dst
}

// appendDesc appends matching proper descendants of n in document order,
// without closure allocation.
func appendDesc(p *Program, in *Instr, n *xmltree.Node, dst []*xmltree.Node) []*xmltree.Node {
	for _, ch := range n.Children {
		if p.match(in, ch) {
			dst = append(dst, ch)
		}
		dst = appendDesc(p, in, ch, dst)
	}
	return dst
}

// match applies the step's fused node test.
func (p *Program) match(in *Instr, n *xmltree.Node) bool {
	switch in.Op.test() {
	case tsName:
		return n.Kind == xmltree.Element && n.Label() == p.Names[in.A]
	case tsWild:
		return n.Kind == xmltree.Element
	case tsAttr:
		// Attribute names are pooled with their "@" prefix: no concat here.
		return n.Kind == xmltree.Attribute && n.Label() == p.Names[in.A]
	case tsText:
		return n.Kind == xmltree.Text
	case tsWord:
		return n.MatchesWord(p.Names[in.A])
	}
	return false
}

// runChain runs nblocks consecutive predicate blocks; all must accept.
func (m *Machine) runChain(p *Program, pc, nblocks int, ctx *xmltree.Node, pos, size int) bool {
	for b := 0; b < nblocks; b++ {
		ok, next := m.runBlock(p, pc, ctx, pos, size)
		if !ok {
			return false
		}
		pc = next
	}
	return true
}

// Value-test modes for the early-exit sub-path walk.
const (
	modeExists = iota
	modeEq
	modeContains
	modePrefix
)

// runBlock executes one predicate block for a context node at 1-based
// position pos in a group of the given size; returns the verdict and the
// pc after the block's pRet.
func (m *Machine) runBlock(p *Program, pc int, ctx *xmltree.Node, pos, size int) (bool, int) {
	flag := false
	for {
		in := &p.Instrs[pc]
		switch in.Op {
		case pExists:
			flag = m.subAny(p, in, ctx, modeExists, "")
		case pEq:
			flag = m.subAny(p, in, ctx, modeEq, p.Lits[in.B])
		case pContains:
			flag = m.subAny(p, in, ctx, modeContains, p.Lits[in.B])
		case pStarts:
			flag = m.subAny(p, in, ctx, modePrefix, p.Lits[in.B])
		case pCount:
			buf := m.getBuf()
			buf = m.runSeg(p, int(in.A), ctx, false, buf)
			flag = xpath.CmpOp(in.C).Holds(len(buf), int(in.B))
			m.putBuf(buf)
		case pPos:
			flag = pos == int(in.A)
		case pLast:
			flag = pos == size
		case pSelfEq:
			flag = ctx.StringValue() == p.Lits[in.A]
		case pJumpF:
			if !flag {
				pc = int(in.A)
				continue
			}
		case pJumpT:
			if flag {
				pc = int(in.A)
				continue
			}
		case pRet:
			return flag, pc + 1
		}
		pc++
	}
}

// subAny evaluates a value-bearing sub-path predicate: true when any node
// the sub-path selects from ctx satisfies the mode's value test. Simple
// sub-paths short-circuit at the first witness; others materialize.
func (m *Machine) subAny(p *Program, in *Instr, ctx *xmltree.Node, mode int, lit string) bool {
	if in.C&1 != 0 {
		return m.segAny(p, int(in.A), ctx, mode, lit)
	}
	buf := m.getBuf()
	buf = m.runSeg(p, int(in.A), ctx, false, buf)
	ok := false
	for _, n := range buf {
		if leafTest(n, mode, lit) {
			ok = true
			break
		}
	}
	m.putBuf(buf)
	return ok
}

func leafTest(n *xmltree.Node, mode int, lit string) bool {
	switch mode {
	case modeEq:
		return n.StringValue() == lit
	case modeContains:
		return strings.Contains(n.StringValue(), lit)
	case modePrefix:
		return strings.HasPrefix(n.StringValue(), lit)
	}
	return true
}

// segAny is the early-exit walk: does the segment at pc select, from ctx,
// any node passing the leaf test? Only called for simple segments (no
// positional predicates on any step).
func (m *Machine) segAny(p *Program, pc int, ctx *xmltree.Node, mode int, lit string) bool {
	in := &p.Instrs[pc]
	if in.Op == opEnd {
		return leafTest(ctx, mode, lit)
	}
	switch in.Op.axis() {
	case axChild:
		for _, ch := range ctx.Children {
			if m.stepAccept(p, in, ch) && m.segAny(p, pc+1, ch, mode, lit) {
				return true
			}
		}
	case axDesc:
		return m.descAny(p, pc, in, ctx, mode, lit)
	case axFollowing:
		sibs, at := m.siblings(ctx)
		for i := at + 1; i < len(sibs); i++ {
			if m.stepAccept(p, in, sibs[i]) && m.segAny(p, pc+1, sibs[i], mode, lit) {
				return true
			}
		}
	case axPreceding:
		sibs, at := m.siblings(ctx)
		for i := at - 1; i >= 0; i-- {
			if m.stepAccept(p, in, sibs[i]) && m.segAny(p, pc+1, sibs[i], mode, lit) {
				return true
			}
		}
	}
	return false
}

// descAny recurses over proper descendants for segAny's descendant steps.
func (m *Machine) descAny(p *Program, pc int, in *Instr, n *xmltree.Node, mode int, lit string) bool {
	for _, ch := range n.Children {
		if m.stepAccept(p, in, ch) && m.segAny(p, pc+1, ch, mode, lit) {
			return true
		}
		if m.descAny(p, pc, in, ch, mode, lit) {
			return true
		}
	}
	return false
}

// stepAccept applies the step's node test and (non-positional) predicate
// chain to a candidate.
func (m *Machine) stepAccept(p *Program, in *Instr, n *xmltree.Node) bool {
	if !p.match(in, n) {
		return false
	}
	if in.B >= 0 {
		return m.runChain(p, int(in.B), int(in.C>>predCountShift), n, 0, 0)
	}
	return true
}

// sortDedup sorts nodes into document order by their cached Dewey keys and
// compacts duplicates, returning the (possibly shortened) slice. The
// common already-sorted case is detected in one pass and skips the sort.
func sortDedup(ns []*xmltree.Node) []*xmltree.Node {
	if len(ns) < 2 {
		return ns
	}
	sorted := true
	for i := 1; i < len(ns); i++ {
		if ns[i-1].ID.Key() > ns[i].ID.Key() {
			sorted = false
			break
		}
	}
	if !sorted {
		sortNodes(ns)
	}
	out := ns[:1]
	for _, n := range ns[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// sortNodes is an allocation-free quicksort (insertion sort below a small
// threshold) over the cached Dewey keys; sort.Slice would cost two
// allocations per call for the closure and interface header.
func sortNodes(ns []*xmltree.Node) {
	for len(ns) > 12 {
		// Median-of-three pivot, moved to position 0.
		mid, last := len(ns)/2, len(ns)-1
		if ns[mid].ID.Key() < ns[0].ID.Key() {
			ns[0], ns[mid] = ns[mid], ns[0]
		}
		if ns[last].ID.Key() < ns[0].ID.Key() {
			ns[0], ns[last] = ns[last], ns[0]
		}
		if ns[mid].ID.Key() < ns[last].ID.Key() {
			ns[mid], ns[last] = ns[last], ns[mid]
		}
		pivot := ns[last].ID.Key()
		i := 0
		for j := 0; j < last; j++ {
			if ns[j].ID.Key() < pivot {
				ns[i], ns[j] = ns[j], ns[i]
				i++
			}
		}
		ns[i], ns[last] = ns[last], ns[i]
		// Recurse on the smaller half; loop on the larger.
		if i < len(ns)-i-1 {
			sortNodes(ns[:i])
			ns = ns[i+1:]
		} else {
			sortNodes(ns[i+1:])
			ns = ns[:i]
		}
	}
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].ID.Key() < ns[j-1].ID.Key(); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}
