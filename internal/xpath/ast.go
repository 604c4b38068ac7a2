// Package xpath implements the XPath{/,//,*,[]} dialect used by the paper
// for view paths and update target paths: child, descendant and sibling
// axes, name and wildcard tests, attribute and text() steps, and predicates
// built from relative-path existence tests, value comparisons, positional
// tests ([1], [last()]), a small function library (count, contains,
// starts-with), and / or combinations.
package xpath

import (
	"strconv"
	"strings"
)

// Axis selects how a step relates to the previous one.
type Axis uint8

const (
	// Child is the parent-child axis ("/").
	Child Axis = iota
	// Descendant is the ancestor-descendant axis ("//"), meaning
	// descendant-or-self followed by child, as in standard XPath
	// abbreviated syntax.
	Descendant
	// FollowingSibling selects siblings after the context node, in
	// document order ("/following-sibling::x").
	FollowingSibling
	// PrecedingSibling selects siblings before the context node. The
	// step's match group is ordered nearest-first (reverse document
	// order), so [1] is the immediately preceding sibling, as in standard
	// XPath; final results are still reported in document order.
	PrecedingSibling
)

// TestKind distinguishes node tests.
type TestKind uint8

const (
	// TestName matches elements with a specific label.
	TestName TestKind = iota
	// TestWildcard matches any element ("*").
	TestWildcard
	// TestAttr matches an attribute ("@name").
	TestAttr
	// TestText matches text nodes ("text()").
	TestText
)

// Step is one location step. Predicates apply sequentially to the step's
// per-context match group: each predicate filters the group, and positional
// tests see positions within the group as filtered by the predicates before
// them ("a[b][2]" is the second a-child having a b).
type Step struct {
	Axis  Axis
	Kind  TestKind
	Name  string // label for TestName, attribute name for TestAttr
	Preds []Expr
}

// Path is an XPath expression: a sequence of steps. Absolute paths are
// evaluated from the document root; in predicates, paths are relative to the
// context node.
type Path struct {
	Steps []Step
}

// Expr is a predicate expression.
type Expr interface{ exprNode() }

// OrExpr is a disjunction.
type OrExpr struct{ Left, Right Expr }

// AndExpr is a conjunction.
type AndExpr struct{ Left, Right Expr }

// ExistsExpr tests whether a relative path has at least one result.
type ExistsExpr struct{ Path Path }

// EqExpr compares the string value of a relative path's results with a
// literal: true when any result's string value equals it.
type EqExpr struct {
	Path Path
	Lit  string
}

// PosExpr is a positional predicate "[n]": true when the context node is
// the n-th node (1-based) of the step's match group.
type PosExpr struct{ N int }

// LastExpr is "[last()]": true when the context node is the last node of
// the step's match group.
type LastExpr struct{}

// CmpOp is a comparison operator for count() predicates.
type CmpOp uint8

const (
	CmpEq CmpOp = iota // =
	CmpNe              // !=
	CmpLt              // <
	CmpLe              // <=
	CmpGt              // >
	CmpGe              // >=
)

// Holds reports whether "a op b" is true.
func (o CmpOp) Holds(a, b int) bool {
	switch o {
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return a == b
}

func (o CmpOp) String() string {
	switch o {
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "="
}

// CountExpr is "count(path) op n": the number of nodes the relative path
// selects, compared to an integer.
type CountExpr struct {
	Path Path
	Op   CmpOp
	N    int
}

// ContainsExpr is "contains(path, lit)" (or "starts-with" when Prefix):
// true when any node the relative path selects has a string value
// containing (or starting with) the literal.
type ContainsExpr struct {
	Path   Path
	Lit    string
	Prefix bool
}

func (OrExpr) exprNode()       {}
func (AndExpr) exprNode()      {}
func (ExistsExpr) exprNode()   {}
func (EqExpr) exprNode()       {}
func (PosExpr) exprNode()      {}
func (LastExpr) exprNode()     {}
func (CountExpr) exprNode()    {}
func (ContainsExpr) exprNode() {}

// String renders the path back to XPath syntax. A path of up to 128 bytes
// is rendered on the stack and allocates only its result.
func (p Path) String() string {
	var scratch [128]byte
	return string(p.AppendTo(scratch[:0]))
}

// AppendTo appends what String returns to dst and returns the extended
// slice.
func (p Path) AppendTo(dst []byte) []byte { return appendXPath(dst, &p, nil) }

// appendXPath renders the path p, or the predicate e when p is nil. Paths
// and predicates nest in each other, and one self-recursive function
// renders both: escape analysis follows dst through a function's own
// result, but through the result of another function in the same cycle of
// calls it sends dst to the heap, and String's scratch with it.
func appendXPath(dst []byte, p *Path, e Expr) []byte {
	if p != nil {
		for _, s := range p.Steps {
			switch s.Axis {
			case Descendant:
				dst = append(dst, "//"...)
			case FollowingSibling:
				dst = append(dst, "/following-sibling::"...)
			case PrecedingSibling:
				dst = append(dst, "/preceding-sibling::"...)
			default:
				dst = append(dst, '/')
			}
			dst = appendStepName(dst, s)
			for _, pr := range s.Preds {
				dst = append(dst, '[')
				dst = appendXPath(dst, nil, pr)
				dst = append(dst, ']')
			}
		}
		return dst
	}
	at := len(dst) // where the predicate's relative path starts (relPath)
	switch x := e.(type) {
	case OrExpr:
		dst = appendXPath(dst, nil, x.Left)
		dst = append(dst, " or "...)
		dst = appendXPath(dst, nil, x.Right)
	case AndExpr:
		// "and" binds tighter than "or", so only disjunction operands need
		// explicit parentheses to reparse identically.
		for i, operand := range [2]Expr{x.Left, x.Right} {
			if i > 0 {
				dst = append(dst, " and "...)
			}
			if _, isOr := operand.(OrExpr); isOr {
				dst = append(appendXPath(append(dst, '('), nil, operand), ')')
			} else {
				dst = appendXPath(dst, nil, operand)
			}
		}
	case ExistsExpr:
		dst = relPath(appendXPath(dst, &x.Path, nil), at)
	case EqExpr:
		dst = relPath(appendXPath(dst, &x.Path, nil), at)
		dst = append(dst, '=')
		dst = appendLiteral(dst, x.Lit)
	case PosExpr:
		dst = strconv.AppendInt(dst, int64(x.N), 10)
	case LastExpr:
		dst = append(dst, "last()"...)
	case CountExpr:
		dst = append(dst, "count("...)
		at = len(dst)
		dst = relPath(appendXPath(dst, &x.Path, nil), at)
		dst = append(dst, ')')
		dst = append(dst, x.Op.String()...)
		dst = strconv.AppendInt(dst, int64(x.N), 10)
	case ContainsExpr:
		if x.Prefix {
			dst = append(dst, "starts-with("...)
		} else {
			dst = append(dst, "contains("...)
		}
		at = len(dst)
		dst = relPath(appendXPath(dst, &x.Path, nil), at)
		dst = append(dst, ',')
		dst = appendLiteral(dst, x.Lit)
		dst = append(dst, ')')
	}
	return dst
}

func appendStepName(dst []byte, s Step) []byte {
	switch s.Kind {
	case TestWildcard:
		return append(dst, '*')
	case TestAttr:
		return append(append(dst, '@'), s.Name...)
	case TestText:
		return append(dst, "text()"...)
	}
	return append(dst, s.Name...)
}

// relPath makes the path rendered at dst[at:] relative, as it appears
// inside a predicate: a leading child step drops its slash, but a leading
// descendant step keeps its "//" (trimming one slash would reparse as a
// child step).
func relPath(dst []byte, at int) []byte {
	rel := dst[at:]
	if len(rel) > 0 && rel[0] == '/' && (len(rel) == 1 || rel[1] != '/') {
		dst = append(dst[:at], rel[1:]...)
	}
	return dst
}

// appendLiteral quotes a literal with whichever quote it does not contain.
// Literals produced by the parser never contain their own delimiter, so
// printed expressions always reparse.
func appendLiteral(dst []byte, lit string) []byte {
	q := byte('"')
	if strings.IndexByte(lit, '"') >= 0 {
		q = '\''
	}
	dst = append(dst, q)
	dst = append(dst, lit...)
	return append(dst, q)
}
