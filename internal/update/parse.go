package update

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// Parse parses an update statement. Supported forms (an optional
// `let $d := doc("uri")` prefix is accepted, and `$d/...` paths then count
// as absolute, matching the paper's test-set syntax):
//
//	delete q
//	insert <xml…/> into q
//	insert q1 into q2
//	for $x in q insert <xml…/> [into $x]
//	replace q with <xml…/>
func Parse(src string) (*Statement, error) {
	p := &uparser{src: src}
	st := &Statement{Source: src}
	var err error

	docVar := ""
	if p.eatKeyword("let") {
		name, err := p.parseVarName()
		if err != nil {
			return nil, err
		}
		if !p.eat(":=") && !p.eatKeyword("in") {
			return nil, p.errf("expected := in let clause")
		}
		if !p.eat("doc(") {
			return nil, p.errf("expected doc(...) in let clause")
		}
		if _, err := p.parseStringLit(); err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errf("expected ) after doc uri")
		}
		docVar = name
		p.eatKeyword("return") // tolerated
	}

	switch {
	case p.eatKeyword("delete"):
		st.Kind = Delete
		if st.Target, st.target, err = p.parseAbsPath(docVar); err != nil {
			return nil, err
		}

	case p.eatKeyword("replace"):
		st.Kind = Replace
		if st.Target, st.target, err = p.parseAbsPath(docVar); err != nil {
			return nil, err
		}
		if !p.eatKeyword("with") {
			return nil, p.errf("expected 'with'")
		}
		forest, err := p.parseForest()
		if err != nil {
			return nil, err
		}
		st.Forest = forest

	case p.eatKeyword("for"):
		loopVar, err := p.parseVarName()
		if err != nil {
			return nil, err
		}
		if !p.eatKeyword("in") {
			return nil, p.errf("expected 'in'")
		}
		if st.Target, st.target, err = p.parseAbsPath(docVar); err != nil {
			return nil, err
		}
		if !p.eatKeyword("insert") {
			return nil, p.errf("expected 'insert'")
		}
		forest, err := p.parseForest()
		if err != nil {
			return nil, err
		}
		if p.eatKeyword("into") {
			name, err := p.parseVarName()
			if err != nil {
				return nil, err
			}
			if name != loopVar {
				return nil, p.errf("insert target $%s does not match loop variable $%s", name, loopVar)
			}
		}
		st.Kind = Insert
		st.Forest = forest

	case p.eatKeyword("insert"):
		st.Kind = Insert
		p.skip()
		if p.pos < len(p.src) && p.src[p.pos] == '<' {
			forest, err := p.parseForest()
			if err != nil {
				return nil, err
			}
			st.Forest = forest
		} else {
			q1, t, err := p.parseAbsPath(docVar)
			if err != nil {
				return nil, err
			}
			st.CopyOf, st.copyOf = &q1, t
		}
		if !p.eatKeyword("into") {
			return nil, p.errf("expected 'into'")
		}
		if st.Target, st.target, err = p.parseAbsPath(docVar); err != nil {
			return nil, err
		}

	default:
		return nil, p.errf("expected delete, insert, replace, for, or let")
	}

	p.skip()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}
	return st, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Statement {
	st, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return st
}

type uparser struct {
	src string
	pos int
}

func (p *uparser) errf(format string, args ...any) error {
	rest := p.src[p.pos:]
	if len(rest) > 40 {
		rest = rest[:40] + "…"
	}
	return fmt.Errorf("update: %s at %q", fmt.Sprintf(format, args...), rest)
}

func (p *uparser) skip() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *uparser) eat(tok string) bool {
	p.skip()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *uparser) eatKeyword(kw string) bool {
	p.skip()
	if !strings.HasPrefix(p.src[p.pos:], kw) {
		return false
	}
	after := p.pos + len(kw)
	if after < len(p.src) && isWordByte(p.src[after]) {
		return false
	}
	p.pos = after
	return true
}

func isWordByte(c byte) bool {
	return c == '_' || c == '-' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *uparser) parseVarName() (string, error) {
	p.skip()
	if !p.eat("$") {
		return "", p.errf("expected variable")
	}
	start := p.pos
	for p.pos < len(p.src) && isWordByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("empty variable name")
	}
	return p.src[start:p.pos], nil
}

func (p *uparser) parseStringLit() (string, error) {
	p.skip()
	if p.pos >= len(p.src) {
		return "", p.errf("expected string literal")
	}
	q := p.src[p.pos]
	if q != '"' && q != '\'' {
		return "", p.errf("expected string literal")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != q {
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", p.errf("unterminated string literal")
	}
	s := p.src[start:p.pos]
	p.pos++
	return s, nil
}

// parseAbsPath parses a path that is either absolute (/...) or rooted at
// the let-bound document variable ($c/...), through the target cache: the
// path's text is its key.
func (p *uparser) parseAbsPath(docVar string) (xpath.Path, *target, error) {
	p.skip()
	if p.pos < len(p.src) && p.src[p.pos] == '$' {
		name, err := p.parseVarName()
		if err != nil {
			return xpath.Path{}, nil, err
		}
		if name != docVar {
			return xpath.Path{}, nil, p.errf("unknown variable $%s (only the let-bound document variable may anchor paths)", name)
		}
	}
	start := p.pos
	if p.pos >= len(p.src) || p.src[p.pos] != '/' {
		return xpath.Path{}, nil, p.errf("expected path")
	}
	// Scan a balanced path: stop at whitespace/keyword boundaries outside
	// brackets and quotes.
	depth := 0
	var quote byte
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			p.pos++
			continue
		}
		switch c {
		case '\'', '"':
			quote = c
		case '[':
			depth++
		case ']':
			depth--
		case ' ', '\t', '\n', '<':
			if depth == 0 {
				return parseTarget(p.src[start:p.pos])
			}
		}
		p.pos++
	}
	return parseTarget(p.src[start:p.pos])
}

// parseForest parses the XML fragment (one or more sibling trees) at the
// cursor into a template forest. Where it ends is the scanner's to say
// (xmltree.ParseForestPrefix), so the fragment is read once, by the rules
// every document and forest is read by.
func (p *uparser) parseForest() ([]*xmltree.Node, error) {
	p.skip()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return nil, p.errf("expected XML fragment")
	}
	forest, n, err := xmltree.ParseForestPrefix(p.src[p.pos:])
	if err != nil {
		// The scanner placed the fault in the fragment; place it in the
		// statement.
		var syn *xmltree.SyntaxError
		if errors.As(err, &syn) {
			err = &xmltree.SyntaxError{
				Msg:    syn.Msg,
				Offset: p.pos + syn.Offset,
				Line:   syn.Line + strings.Count(p.src[:p.pos], "\n"),
			}
		}
		return nil, fmt.Errorf("update: XML fragment: %w", err)
	}
	p.pos += n
	return forest, nil
}
