package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// MustParse parses an XPath expression and panics on error; intended for
// statically known paths in tests and workload definitions.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Parse parses an XPath{/,//,*,[]} expression. The path must be absolute
// (start with / or //).
func Parse(s string) (Path, error) {
	p := &parser{src: s}
	p.skipSpace()
	if !strings.HasPrefix(p.rest(), "/") {
		return Path{}, fmt.Errorf("xpath: path %q must be absolute", s)
	}
	path, err := p.parsePath(false)
	if err != nil {
		return Path{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Path{}, fmt.Errorf("xpath: trailing input %q", p.rest())
	}
	return path, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) rest() string { return p.src[p.pos:] }

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) eat(tok string) bool {
	if strings.HasPrefix(p.rest(), tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) peekByte() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// parsePath parses a sequence of steps. If relative is true the first step
// may omit its leading slash (meaning a child step from the context node).
func (p *parser) parsePath(relative bool) (Path, error) {
	var path Path
	first := true
	for {
		p.skipSpace()
		axis := Child
		switch {
		case p.eat("//"):
			axis = Descendant
		case p.eat("/"):
			axis = Child
		default:
			if !(first && relative) {
				if first {
					return Path{}, fmt.Errorf("xpath: expected / or // at %q", p.rest())
				}
				return path, nil
			}
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return Path{}, err
		}
		path.Steps = append(path.Steps, step)
		first = false
		p.skipSpace()
		if p.pos >= len(p.src) || (p.peekByte() != '/') {
			return path, nil
		}
	}
}

func (p *parser) parseStep(axis Axis) (Step, error) {
	p.skipSpace()
	// Explicit sibling axes replace the abbreviated axis: they only make
	// sense after "/" (a "//" prefix would compose descendant-or-self with
	// a sibling move, which the dialect does not define).
	switch {
	case p.eat("following-sibling::"):
		if axis != Child {
			return Step{}, fmt.Errorf("xpath: following-sibling:: must follow /, not //")
		}
		axis = FollowingSibling
	case p.eat("preceding-sibling::"):
		if axis != Child {
			return Step{}, fmt.Errorf("xpath: preceding-sibling:: must follow /, not //")
		}
		axis = PrecedingSibling
	}
	st := Step{Axis: axis}
	switch {
	case p.eat("text()"):
		st.Kind = TestText
	case p.eat("*"):
		st.Kind = TestWildcard
	case p.eat("@"):
		name, err := p.parseName()
		if err != nil {
			return st, err
		}
		st.Kind = TestAttr
		st.Name = name
	default:
		name, err := p.parseName()
		if err != nil {
			return st, err
		}
		st.Kind = TestName
		st.Name = name
	}
	for {
		p.skipSpace()
		if !p.eat("[") {
			return st, nil
		}
		e, err := p.parseOr()
		if err != nil {
			return st, err
		}
		p.skipSpace()
		if !p.eat("]") {
			return st, fmt.Errorf("xpath: missing ] at %q", p.rest())
		}
		st.Preds = append(st.Preds, e)
	}
}

func isNameRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == ':'
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if !isNameRune(r) {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("xpath: expected name at %q", p.rest())
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eatKeyword("or") {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = OrExpr{Left: left, Right: right}
	}
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.eatKeyword("and") {
			return left, nil
		}
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = AndExpr{Left: left, Right: right}
	}
}

// eatKeyword consumes a keyword only when followed by a non-name character,
// so that an element named "order" is not misread as "or".
func (p *parser) eatKeyword(kw string) bool {
	if !strings.HasPrefix(p.rest(), kw) {
		return false
	}
	after := p.pos + len(kw)
	if after < len(p.src) && isNameRune(rune(p.src[after])) {
		return false
	}
	p.pos = after
	return true
}

func (p *parser) parsePrimary() (Expr, error) {
	p.skipSpace()
	if p.eat("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.eat(")") {
			return nil, fmt.Errorf("xpath: missing ) at %q", p.rest())
		}
		return e, nil
	}
	// A bare integer is a positional test. Digits followed by further name
	// runes fall through to the path case (labels may contain digits).
	if n, ok := p.tryInteger(); ok {
		return PosExpr{N: n}, nil
	}
	// Function-call primaries: an identifier immediately followed by "(".
	if p.eat("last()") {
		return LastExpr{}, nil
	}
	if p.eat("count(") {
		return p.parseCount()
	}
	if p.eat("contains(") {
		return p.parseContains(false)
	}
	if p.eat("starts-with(") {
		return p.parseContains(true)
	}
	// A relative path, optionally compared to a literal.
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 {
		return nil, fmt.Errorf("xpath: expected predicate path at %q", p.rest())
	}
	p.skipSpace()
	if p.eat("=") {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return EqExpr{Path: path, Lit: lit}, nil
	}
	return ExistsExpr{Path: path}, nil
}

// tryInteger consumes a run of digits only when it forms a whole token (the
// next rune is not a name rune), so element names starting with digits keep
// parsing as paths.
func (p *parser) tryInteger() (int, bool) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start || (p.pos < len(p.src) && isNameRune(rune(p.src[p.pos]))) {
		p.pos = start
		return 0, false
	}
	n, err := strconv.Atoi(p.src[start:p.pos])
	if err != nil {
		p.pos = start
		return 0, false
	}
	return n, true
}

// parseCount finishes "count(" path ")" cmp int.
func (p *parser) parseCount() (Expr, error) {
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 {
		return nil, fmt.Errorf("xpath: count() needs a path at %q", p.rest())
	}
	p.skipSpace()
	if !p.eat(")") {
		return nil, fmt.Errorf("xpath: missing ) in count at %q", p.rest())
	}
	p.skipSpace()
	var op CmpOp
	switch {
	case p.eat("!="):
		op = CmpNe
	case p.eat("<="):
		op = CmpLe
	case p.eat(">="):
		op = CmpGe
	case p.eat("<"):
		op = CmpLt
	case p.eat(">"):
		op = CmpGt
	case p.eat("="):
		op = CmpEq
	default:
		return nil, fmt.Errorf("xpath: count() needs a comparison at %q", p.rest())
	}
	p.skipSpace()
	n, ok := p.tryInteger()
	if !ok {
		return nil, fmt.Errorf("xpath: count() compares to an integer, at %q", p.rest())
	}
	return CountExpr{Path: path, Op: op, N: n}, nil
}

// parseContains finishes "contains(" path "," literal ")" (or starts-with).
func (p *parser) parseContains(prefix bool) (Expr, error) {
	path, err := p.parsePath(true)
	if err != nil {
		return nil, err
	}
	if len(path.Steps) == 0 {
		return nil, fmt.Errorf("xpath: expected path argument at %q", p.rest())
	}
	p.skipSpace()
	if !p.eat(",") {
		return nil, fmt.Errorf("xpath: missing , at %q", p.rest())
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.eat(")") {
		return nil, fmt.Errorf("xpath: missing ) at %q", p.rest())
	}
	return ContainsExpr{Path: path, Lit: lit, Prefix: prefix}, nil
}

func (p *parser) parseLiteral() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("xpath: expected literal at end of input")
	}
	q := p.src[p.pos]
	if q == '\'' || q == '"' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != q {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return "", fmt.Errorf("xpath: unterminated string literal")
		}
		lit := p.src[start:p.pos]
		p.pos++
		return lit, nil
	}
	// Bare number literal.
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c < '0' || c > '9') && c != '.' && c != '-' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("xpath: expected literal at %q", p.rest())
	}
	return p.src[start:p.pos], nil
}
