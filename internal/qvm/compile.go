package qvm

import (
	"fmt"

	"xivm/internal/xpath"
)

// Compile compiles an absolute XPath into a program evaluated from the
// virtual document node (the anchoring Parse guarantees for absolute
// paths).
func Compile(p xpath.Path) (*Program, error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("qvm: cannot compile an empty path")
	}
	c := &compiler{
		prog:    &Program{Source: p.String()},
		nameIdx: map[string]int32{},
		litIdx:  map[string]int32{},
	}
	if _, err := c.segment(p.Steps); err != nil {
		return nil, err
	}
	return c.prog, nil
}

// CompileString parses and compiles an absolute XPath expression.
func CompileString(s string) (*Program, error) {
	p, err := xpath.Parse(s)
	if err != nil {
		return nil, err
	}
	prog, err := Compile(p)
	if err != nil {
		return nil, err
	}
	prog.Source = s
	return prog, nil
}

type compiler struct {
	prog    *Program
	nameIdx map[string]int32
	litIdx  map[string]int32
}

func (c *compiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.Names))
	c.prog.Names = append(c.prog.Names, s)
	c.nameIdx[s] = i
	return i
}

func (c *compiler) lit(s string) int32 {
	if i, ok := c.litIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.Lits))
	c.prog.Lits = append(c.prog.Lits, s)
	c.litIdx[s] = i
	return i
}

func (c *compiler) emit(in Instr) int32 {
	c.prog.Instrs = append(c.prog.Instrs, in)
	return int32(len(c.prog.Instrs) - 1)
}

// segment emits the step sequence followed by opEnd, then the predicate
// chains (and their sub-path segments) the steps reference, patching the
// step instructions. Returns the segment's entry pc.
func (c *compiler) segment(steps []xpath.Step) (int32, error) {
	start := int32(len(c.prog.Instrs))
	type pendingStep struct {
		at    int32
		preds []xpath.Expr
	}
	var pending []pendingStep
	for _, st := range steps {
		in := Instr{A: -1, B: -1}
		var axis int
		switch st.Axis {
		case xpath.Child:
			axis = axChild
		case xpath.Descendant:
			axis = axDesc
		case xpath.FollowingSibling:
			axis = axFollowing
		case xpath.PrecedingSibling:
			axis = axPreceding
		default:
			return 0, fmt.Errorf("qvm: unsupported axis %d", st.Axis)
		}
		switch st.Kind {
		case xpath.TestName:
			in.Op = stepOp(axis, tsName)
			in.A = c.name(st.Name)
		case xpath.TestWildcard:
			in.Op = stepOp(axis, tsWild)
		case xpath.TestAttr:
			// Attribute labels are stored with their "@" prefix so the VM
			// compares labels without concatenating at match time.
			in.Op = stepOp(axis, tsAttr)
			in.A = c.name("@" + st.Name)
		case xpath.TestText:
			in.Op = stepOp(axis, tsText)
		default:
			return 0, fmt.Errorf("qvm: unsupported node test %d", st.Kind)
		}
		at := c.emit(in)
		if len(st.Preds) > 0 {
			pending = append(pending, pendingStep{at: at, preds: st.Preds})
		}
	}
	c.emit(Instr{Op: opEnd, A: -1, B: -1})
	for _, ps := range pending {
		chain, err := c.predChain(ps.preds)
		if err != nil {
			return 0, err
		}
		flags := int32(len(ps.preds)) << predCountShift
		for _, e := range ps.preds {
			if hasPositional(e) {
				flags |= stepGrouped
				break
			}
		}
		c.prog.Instrs[ps.at].B = chain
		c.prog.Instrs[ps.at].C = flags
	}
	return start, nil
}

// predChain emits one pRet-terminated block per predicate, consecutively,
// then the relative sub-path segments the blocks reference. Returns the pc
// of the first block.
func (c *compiler) predChain(preds []xpath.Expr) (int32, error) {
	start := int32(len(c.prog.Instrs))
	type subPatch struct {
		at   int32
		path xpath.Path
	}
	var subs []subPatch
	var compile func(e xpath.Expr) error
	compile = func(e xpath.Expr) error {
		switch x := e.(type) {
		case xpath.OrExpr:
			if err := compile(x.Left); err != nil {
				return err
			}
			j := c.emit(Instr{Op: pJumpT, A: -1, B: -1})
			if err := compile(x.Right); err != nil {
				return err
			}
			c.prog.Instrs[j].A = int32(len(c.prog.Instrs))
		case xpath.AndExpr:
			if err := compile(x.Left); err != nil {
				return err
			}
			j := c.emit(Instr{Op: pJumpF, A: -1, B: -1})
			if err := compile(x.Right); err != nil {
				return err
			}
			c.prog.Instrs[j].A = int32(len(c.prog.Instrs))
		case xpath.ExistsExpr:
			at := c.emit(Instr{Op: pExists, A: -1, B: -1, C: simpleBit(x.Path)})
			subs = append(subs, subPatch{at: at, path: x.Path})
		case xpath.EqExpr:
			at := c.emit(Instr{Op: pEq, A: -1, B: c.lit(x.Lit), C: simpleBit(x.Path)})
			subs = append(subs, subPatch{at: at, path: x.Path})
		case xpath.ContainsExpr:
			op := pContains
			if x.Prefix {
				op = pStarts
			}
			at := c.emit(Instr{Op: op, A: -1, B: c.lit(x.Lit), C: simpleBit(x.Path)})
			subs = append(subs, subPatch{at: at, path: x.Path})
		case xpath.CountExpr:
			at := c.emit(Instr{Op: pCount, A: -1, B: int32(x.N), C: int32(x.Op)})
			subs = append(subs, subPatch{at: at, path: x.Path})
		case xpath.PosExpr:
			c.emit(Instr{Op: pPos, A: int32(x.N), B: -1})
		case xpath.LastExpr:
			c.emit(Instr{Op: pLast, A: -1, B: -1})
		default:
			return fmt.Errorf("qvm: unsupported predicate expression %T", e)
		}
		return nil
	}
	for _, e := range preds {
		if err := compile(e); err != nil {
			return 0, err
		}
		c.emit(Instr{Op: pRet, A: -1, B: -1})
	}
	for _, sp := range subs {
		pc, err := c.segment(sp.path.Steps)
		if err != nil {
			return 0, err
		}
		c.prog.Instrs[sp.at].A = pc
	}
	return start, nil
}

// hasPositional reports whether the expression contains a positional test
// anywhere — such predicates must be evaluated against per-context match
// groups rather than the batched deduplicated node set.
func hasPositional(e xpath.Expr) bool {
	switch x := e.(type) {
	case xpath.OrExpr:
		return hasPositional(x.Left) || hasPositional(x.Right)
	case xpath.AndExpr:
		return hasPositional(x.Left) || hasPositional(x.Right)
	case xpath.PosExpr, xpath.LastExpr:
		return true
	}
	return false
}

// simpleBit returns 1 when every step of the relative path is free of
// positional predicates, making the sub-path eligible for the early-exit
// existence walk (stop at the first witness instead of materializing the
// full result set).
func simpleBit(p xpath.Path) int32 {
	for _, st := range p.Steps {
		for _, e := range st.Preds {
			if hasPositional(e) {
				return 0
			}
		}
		// Nested sub-paths inside this step's predicates are evaluated
		// recursively by the VM and may themselves be non-simple; the bit
		// only gates the outer walk, so that is fine.
	}
	return 1
}
