// Package qvm compiles parsed xpath.Path structures into compact bytecode
// programs executed by a small stack VM. A program is immutable once
// compiled: it holds no document state, so one program can serve any number
// of concurrent evaluations over any number of immutable snapshots — the
// serving-path cache (Cache) exploits exactly that, and no invalidation
// protocol is needed.
//
// Instruction layout. A program is one flat []Instr array holding three
// kinds of code, distinguished by position rather than by markers:
//
//   - path segments: runs of fused step opcodes terminated by opEnd. The
//     main segment starts at pc 0; relative sub-paths referenced from
//     predicates are appended as further segments.
//   - predicate chains: one block per predicate, each a short-circuiting
//     flag-register bytecode ending in pRet. A step's B operand points at
//     the first block of its chain; the block count rides in C.
//
// Step opcodes fuse the axis with the node test (child/descendant/
// following-sibling/preceding-sibling × name/wildcard/attribute/text)
// so the inner matching loop is a single switch with no further
// dispatching. Labels and literals live in per-program constant pools,
// referenced by index.
package qvm

// Op is a bytecode opcode.
type Op uint8

// Axis and test codes packed into the fused step opcodes.
const (
	axChild = iota
	axDesc
	axFollowing
	axPreceding
	numAxes
)

const (
	tsName = iota
	tsWild
	tsAttr
	tsText
	numTests
)

const (
	// opEnd terminates a path segment.
	opEnd Op = 0
	// opStep0 .. opStepLast are the fused step opcodes:
	// opStep0 + axis*numTests + test.
	opStep0    Op = 1
	opStepLast Op = opStep0 + numAxes*numTests - 1
)

// Predicate ops (flag-register bytecode inside predicate blocks).
const (
	pExists   Op = opStepLast + 1 + iota // A=subpath pc, C=1 if the sub-path is simple (early-exit eligible)
	pEq                                  // A=subpath pc, B=literal index, C=simple bit
	pContains                            // A=subpath pc, B=literal index, C=simple bit
	pStarts                              // A=subpath pc, B=literal index, C=simple bit
	pCount                               // A=subpath pc, B=N, C=comparison op (xpath.CmpOp)
	pPos                                 // A=N: flag = (position == N)
	pLast                                // flag = (position == size)
	pSelfEq                              // A=literal index: flag = (context string value == literal)
	pJumpF                               // A=target pc: jump if flag is false
	pJumpT                               // A=target pc: jump if flag is true
	pRet                                 // end of predicate block; block result is the flag
)

// Step C-operand flags.
const (
	stepGrouped    = 1 << 0 // chain contains positional predicates: filter per context group
	predCountShift = 8      // C >> predCountShift = number of predicate blocks
)

// Instr is one instruction. Operand meaning depends on the opcode; unused
// operands are -1 (A, B) or 0 (C).
type Instr struct {
	Op      Op
	A, B, C int32
}

// Program is a compiled, immutable query program.
type Program struct {
	Instrs []Instr
	Names  []string // label constants (attribute names stored with "@")
	Lits   []string // string literal constants
	// Source is the text the program was compiled from, for diagnostics.
	Source string
}

func stepOp(axis, test int) Op { return opStep0 + Op(axis*numTests+test) }

func (op Op) isStep() bool { return op >= opStep0 && op <= opStepLast }

func (op Op) axis() int { return int(op-opStep0) / numTests }
func (op Op) test() int { return int(op-opStep0) % numTests }
