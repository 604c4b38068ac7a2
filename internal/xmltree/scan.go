package xmltree

import (
	"bytes"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The scanner: one pass over a document's or a forest's text, which the
// parsers (parse.go) build trees from. It accepts what encoding/xml's
// Decoder.Token accepts — the oracle in scan_test.go holds it to that —
// but for a prefixed name whose local part is no name (<p:0/>, which would
// serialize as <0/>), and reads it the same way, with two differences:
//
//   - adjacent character data is one text node: text split by a comment, a
//     processing instruction or a CDATA section is read as one, which is
//     what a reparse of the tree's serialization reads;
//   - a forest drops namespace declarations as a document does, so that an
//     inserted tree and a reparse of it have the same attributes.
//
// What it accepts: elements, attributes in either quote style, the five
// predefined entities and character references, and CDATA sections.
// Comments, processing instructions, the XML declaration (which must say
// version 1.0 and, if anything, encoding UTF-8) and DOCTYPE are skipped.
// "\r\n" and a lone '\r' become '\n'. Input is UTF-8, every character in
// XML's range. Names follow XML 1.0's Name production, by its Appendix B
// classes; a prefix is dropped, so a label is the local part. Character data that is white space only
// (unicode.IsSpace), or outside every element, is no node.

// SyntaxError is input the parsers refuse: what is wrong, and where the
// scanner was when it found out — a byte offset into the input, and the
// line (1-based, counting '\n') that offset is on.
type SyntaxError struct {
	Msg    string
	Offset int
	Line   int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmltree: line %d, byte %d: %s", e.Line, e.Offset, e.Msg)
}

// event is what scanner.next read.
type event uint8

const (
	evEOF   event = iota
	evStart       // a start tag: local, empty, attrs
	evEnd         // an end tag
	evText        // character data inside an element: text
)

// span is a value the scanner read: bytes lo:hi of the input, or of buf
// when decoding changed them.
type span struct {
	lo, hi int
	inBuf  bool
}

// attr is an attribute of a start tag.
type attr struct {
	local string // a substring of the input
	value span
}

type scanner struct {
	src string
	pos int
	// open holds the qualified names of the open elements, innermost last:
	// an end tag must name the innermost.
	open []string
	// prefix stops the scan where the forest the input begins with ends
	// (ParseForestPrefix).
	prefix bool

	// The event next returned. Strings are substrings of the input and
	// spans may be into buf: both last until the next call of next only.
	at      int    // evStart, evEnd: the tag's offset
	local   string // evStart: the element's local name
	empty   bool   // evStart: an empty-element tag, which no evEnd closes
	attrs   []attr // evStart: the attributes, namespace declarations dropped
	text    span   // evText
	hasText bool
	buf     []byte
}

// str returns a copy of v: never a substring of the input, which a node
// would otherwise pin whole — a request body, a checkpoint's doc.xml.
func (s *scanner) str(v span) string {
	if v.inBuf {
		return string(s.buf[v.lo:v.hi])
	}
	return strings.Clone(s.src[v.lo:v.hi])
}

func (s *scanner) errAt(at int, msg string) error {
	return &SyntaxError{Msg: msg, Offset: at, Line: 1 + strings.Count(s.src[:at], "\n")}
}

func (s *scanner) eof() error { return s.errAt(len(s.src), "unexpected end of input") }

// next reads up to the next event.
func (s *scanner) next() (event, error) {
	s.buf, s.hasText = s.buf[:0], false
	for {
		if s.prefix && len(s.open) == 0 && !s.forestGoesOn() {
			return evEOF, nil
		}
		if s.pos == len(s.src) {
			if len(s.open) > 0 {
				return 0, s.errAt(s.pos, "element <"+s.open[len(s.open)-1]+"> is not closed")
			}
			return evEOF, nil
		}
		if s.src[s.pos] != '<' {
			v, err := s.chars(0)
			if err != nil {
				return 0, err
			}
			s.addText(v)
			continue
		}
		if s.pos+1 == len(s.src) {
			return 0, s.eof()
		}
		var err error
		switch s.src[s.pos+1] {
		case '!':
			err = s.bang()
		case '?':
			err = s.pi()
		default:
			if s.hasText {
				if !s.blank(s.text) {
					return evText, nil
				}
				s.buf, s.hasText = s.buf[:0], false
			}
			s.at = s.pos
			if s.src[s.pos+1] == '/' {
				return evEnd, s.endTag()
			}
			return evStart, s.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// forestGoesOn reports, at the top level of a forest read by
// ParseForestPrefix, whether it goes on: past white space, a '<' that does
// not open an end tag. If it does, the scan moves to that '<'.
func (s *scanner) forestGoesOn() bool {
	p := s.pos
	for p < len(s.src) && isSpace(s.src[p]) {
		p++
	}
	if p == len(s.src) || s.src[p] != '<' || p+1 < len(s.src) && s.src[p+1] == '/' {
		return false
	}
	s.pos = p
	return true
}

// addText adds character data to the text being read, if it is inside an
// element. Pieces split by comments, PIs and CDATA sections are merged at
// the end of buf: the text is copied there once, at the first merge, and
// each later piece extends it — one decoded into buf already sits right
// after it — so a text of N pieces costs its length, not N times it.
func (s *scanner) addText(v span) {
	switch {
	case len(s.open) == 0:
	case !s.hasText:
		s.text, s.hasText = v, true
	case s.text.inBuf && v.inBuf && s.text.hi == v.lo:
		s.text.hi = v.hi
	default:
		if !s.text.inBuf || s.text.hi != len(s.buf) {
			lo := len(s.buf)
			s.buf = s.appendSpan(s.buf, s.text)
			s.text = span{lo: lo, hi: len(s.buf), inBuf: true}
		}
		s.buf = s.appendSpan(s.buf, v)
		s.text.hi = len(s.buf)
	}
}

func (s *scanner) appendSpan(dst []byte, v span) []byte {
	if v.inBuf {
		return append(dst, s.buf[v.lo:v.hi]...)
	}
	return append(dst, s.src[v.lo:v.hi]...)
}

// blank reports whether v is white space only, as strings.TrimSpace reads
// white space.
func (s *scanner) blank(v span) bool {
	if v.inBuf {
		return len(bytes.TrimSpace(s.buf[v.lo:v.hi])) == 0
	}
	return strings.TrimSpace(s.src[v.lo:v.hi]) == ""
}

// plain marks the bytes character data holds as they are: ASCII, printable
// or tab or newline, and not one of <&>"'.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range "<&>\"'" {
		t[c] = false
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// chars reads character data from s.pos: text up to the next '<' or the end
// of input (quote 0), or an attribute value up to its closing quote, where
// it leaves s.pos. References are replaced, and "\r\n" and a lone '\r'
// become '\n': a value neither changed is a span of the input, any other
// is decoded into buf.
func (s *scanner) chars(quote byte) (span, error) {
	src := s.src
	start, i := s.pos, s.pos
	run, lo := start, -1 // decoding: the first byte not yet in buf, where the value starts in buf
scan:
	for i < len(src) {
		c := src[i]
		if plain[c] {
			i++
			continue
		}
		switch c {
		case '<':
			if quote != 0 {
				return span{}, s.errAt(i, "'<' in an attribute value")
			}
			break scan
		case '>':
			if quote == 0 && i-start >= 2 && src[i-2:i] == "]]" {
				return span{}, s.errAt(i-2, "']]>' outside a CDATA section")
			}
			i++
		case '"', '\'':
			if c == quote {
				break scan
			}
			i++
		case '&', '\r':
			if lo < 0 {
				lo = len(s.buf)
			}
			s.buf = append(s.buf, src[run:i]...)
			if c == '&' {
				r, n, err := s.ref(i)
				if err != nil {
					return span{}, err
				}
				s.buf = utf8.AppendRune(s.buf, r)
				i += n
			} else {
				s.buf = append(s.buf, '\n')
				if i++; i < len(src) && src[i] == '\n' {
					i++
				}
			}
			run = i
		default:
			n, err := s.char(i)
			if err != nil {
				return span{}, err
			}
			i += n
		}
	}
	if quote != 0 && i == len(src) {
		return span{}, s.eof()
	}
	s.pos = i
	if lo < 0 {
		return span{lo: start, hi: i}, nil
	}
	s.buf = append(s.buf, src[run:i]...)
	return span{lo: lo, hi: len(s.buf), inBuf: true}, nil
}

// char checks the character at src[i] — one plain does not pass — and
// returns its length in bytes.
func (s *scanner) char(i int) (int, error) {
	c := s.src[i]
	if c < utf8.RuneSelf {
		if c >= ' ' || c == '\t' || c == '\n' || c == '\r' {
			return 1, nil
		}
		return 0, s.errAt(i, fmt.Sprintf("illegal character %U", rune(c)))
	}
	r, n := utf8.DecodeRuneInString(s.src[i:])
	switch {
	case r == utf8.RuneError && n == 1:
		return 0, s.errAt(i, "invalid UTF-8")
	case r == 0xFFFE || r == 0xFFFF:
		return 0, s.errAt(i, fmt.Sprintf("illegal character %U", r))
	}
	return n, nil
}

// isChar reports whether r is in XML's Char production.
func isChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= ' ' && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= unicode.MaxRune
}

var entities = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// ref reads the reference at src[i], an '&': a character reference, or one
// of the five predefined entities. It returns the character and the
// reference's length. A reference to a surrogate reads as U+FFFD, as in
// encoding/xml.
func (s *scanner) ref(i int) (rune, int, error) {
	rest := s.src[i+1:]
	if !strings.HasPrefix(rest, "#") {
		for _, e := range entities {
			if strings.HasPrefix(rest, e.name) {
				return e.r, 1 + len(e.name), nil
			}
		}
		return 0, 0, s.errAt(i, "invalid entity reference")
	}
	j, base := 1, uint64(10)
	if strings.HasPrefix(rest, "#x") {
		j, base = 2, 16
	}
	first, n := j, uint64(0)
	for ; j < len(rest); j++ {
		d := digit(rest[j], base)
		if d < 0 {
			break
		}
		if n <= unicode.MaxRune {
			n = n*base + uint64(d)
		}
	}
	if j == first || j == len(rest) || rest[j] != ';' || n > unicode.MaxRune {
		return 0, 0, s.errAt(i, "invalid character reference")
	}
	r := rune(n)
	if r >= 0xD800 && r <= 0xDFFF {
		r = utf8.RuneError
	}
	if !isChar(r) {
		return 0, 0, s.errAt(i, fmt.Sprintf("illegal character %U", r))
	}
	return r, j + 2, nil
}

// digit returns c's value as a digit in base 10 or 16, or -1.
func digit(c byte, base uint64) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case base == 16 && c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (s *scanner) space() {
	for s.pos < len(s.src) && isSpace(s.src[s.pos]) {
		s.pos++
	}
}

// startTag reads the start tag at s.pos.
func (s *scanner) startTag() error {
	s.pos++
	qname, err := s.name(true)
	if err != nil {
		return err
	}
	if qname == "" {
		return s.errAt(s.pos, "expected an element name after '<'")
	}
	_, s.local = splitName(qname)
	s.empty, s.attrs = false, s.attrs[:0]
	for {
		s.space()
		if s.pos == len(s.src) {
			return s.eof()
		}
		switch s.src[s.pos] {
		case '>':
			s.pos++
			s.open = append(s.open, qname)
			return nil
		case '/':
			if s.pos++; s.pos == len(s.src) {
				return s.eof()
			}
			if s.src[s.pos] != '>' {
				return s.errAt(s.pos, "expected '>' after '/' in a tag")
			}
			s.pos++
			s.empty = true
			return nil
		}
		name, err := s.name(true)
		if err != nil {
			return err
		}
		if name == "" {
			return s.errAt(s.pos, "expected an attribute name")
		}
		s.space()
		if s.pos == len(s.src) {
			return s.eof()
		}
		if s.src[s.pos] != '=' {
			return s.errAt(s.pos, "expected '=' after attribute "+name)
		}
		s.pos++
		s.space()
		if s.pos == len(s.src) {
			return s.eof()
		}
		q := s.src[s.pos]
		if q != '"' && q != '\'' {
			return s.errAt(s.pos, "attribute "+name+"'s value is not quoted")
		}
		s.pos++
		v, err := s.chars(q)
		if err != nil {
			return err
		}
		s.pos++
		// A namespace declaration (xmlns="…", xmlns:p="…") is no attribute.
		prefix, local := splitName(name)
		if prefix == "xmlns" || local == "xmlns" {
			continue
		}
		s.attrs = append(s.attrs, attr{local: local, value: v})
	}
}

// endTag reads the end tag at s.pos, which must close the innermost open
// element.
func (s *scanner) endTag() error {
	s.pos += 2
	qname, err := s.name(true)
	if err != nil {
		return err
	}
	if qname == "" {
		return s.errAt(s.pos, "expected an element name after '</'")
	}
	s.space()
	if s.pos == len(s.src) {
		return s.eof()
	}
	if s.src[s.pos] != '>' {
		return s.errAt(s.pos, "expected '>' after </"+qname)
	}
	s.pos++
	switch top := len(s.open) - 1; {
	case top < 0:
		return s.errAt(s.at, "end tag </"+qname+"> closes no element")
	case s.open[top] != qname:
		return s.errAt(s.at, "element <"+s.open[top]+"> closed by </"+qname+">")
	default:
		s.open = s.open[:top]
	}
	return nil
}

// bang reads the comment, CDATA section or declaration at s.pos, which
// opens with "<!".
func (s *scanner) bang() error {
	rest := s.src[s.pos+2:]
	switch {
	case strings.HasPrefix(rest, "--"):
		body := s.pos + 4
		i := strings.Index(s.src[body:], "--")
		if i < 0 || body+i+2 == len(s.src) {
			return s.eof()
		}
		if s.src[body+i+2] != '>' {
			return s.errAt(body+i, "'--' inside a comment")
		}
		s.pos = body + i + 3
	case strings.HasPrefix(rest, "[CDATA["):
		body := s.pos + 9
		i := strings.Index(s.src[body:], "]]>")
		if i < 0 {
			return s.eof()
		}
		v, err := s.cdata(body, body+i)
		if err != nil {
			return err
		}
		s.pos = body + i + 3
		s.addText(v)
	case rest == "":
		return s.eof()
	case rest[0] == '-' || rest[0] == '[':
		return s.errAt(s.pos, "expected '<!--' or '<![CDATA['")
	default:
		return s.directive()
	}
	return nil
}

// cdata checks a CDATA section's content, src[lo:hi], and returns it with
// its line ends made '\n'.
func (s *scanner) cdata(lo, hi int) (span, error) {
	for i := lo; i < hi; {
		if c := s.src[i]; c >= ' ' && c < utf8.RuneSelf || c == '\n' {
			i++
			continue
		}
		n, err := s.char(i)
		if err != nil {
			return span{}, err
		}
		i += n
	}
	if strings.IndexByte(s.src[lo:hi], '\r') < 0 {
		return span{lo: lo, hi: hi}, nil
	}
	start := len(s.buf)
	for i := lo; i < hi; i++ {
		switch c := s.src[i]; {
		case c != '\r':
			s.buf = append(s.buf, c)
		case i+1 == hi || s.src[i+1] != '\n':
			s.buf = append(s.buf, '\n')
		}
	}
	return span{lo: start, hi: len(s.buf), inBuf: true}, nil
}

// directive skips the declaration at s.pos (<!DOCTYPE …>, <!ENTITY …>) the
// way encoding/xml does: past the byte after "<!", to the first '>' outside
// quotes that closes as many '<' as it met, a comment inside skipped whole.
func (s *scanner) directive() error {
	src := s.src
	i := s.pos + 3
	var quote byte
	depth := 0
	for {
		if i == len(src) {
			return s.eof()
		}
		c := src[i]
		i++
		if quote == 0 && c == '>' && depth == 0 {
			s.pos = i
			return nil
		}
	handle:
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			depth--
		case c == '<':
			k := 0
			for k < 3 && i < len(src) && src[i] == "!--"[k] {
				i, k = i+1, k+1
			}
			if k < 3 {
				if i == len(src) {
					return s.eof()
				}
				// Not a comment: the '<' nests, and the byte that broke
				// "<!--" is read as any other.
				depth++
				c = src[i]
				i++
				goto handle
			}
			end := strings.Index(src[i:], "-->")
			if end < 0 {
				return s.eof()
			}
			i += end + 3
		}
	}
}

// pi skips the processing instruction at s.pos. The one named xml, the XML
// declaration, must declare version 1.0, if any, and encoding UTF-8, if
// any.
func (s *scanner) pi() error {
	at := s.pos
	s.pos += 2
	target, err := s.name(false)
	if err != nil {
		return err
	}
	if target == "" {
		return s.errAt(s.pos, "expected a target name after '<?'")
	}
	s.space()
	end := strings.Index(s.src[s.pos:], "?>")
	if end < 0 {
		return s.eof()
	}
	body := s.src[s.pos : s.pos+end]
	s.pos += end + 2
	if target != "xml" {
		return nil
	}
	if v := declParam("version=", body); v != "" && v != "1.0" {
		return s.errAt(at, "unsupported XML version "+v)
	}
	if enc := declParam("encoding=", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return s.errAt(at, "unsupported encoding "+enc+": input must be UTF-8")
	}
	return nil
}

// declParam returns a parameter's value in an XML declaration's body, read
// as encoding/xml reads it: after the first occurrence of param (`name=`)
// directly followed by a quote, up to the next such quote; "" if none.
func declParam(param, body string) string {
	for i := 0; i < len(body); {
		k := strings.Index(body[i:], param)
		if k < 0 || i+k+len(param) >= len(body) {
			return ""
		}
		i += k + len(param) + 1
		if q := body[i-1]; q == '"' || q == '\'' {
			if j := strings.IndexByte(body[i:], q); j >= 0 {
				return body[i : i+j]
			}
			return ""
		}
	}
	return ""
}

// name reads the name at s.pos — "" if there is none — and moves past it.
// A name in a tag (ns set) may hold one colon, between its prefix and its
// local part.
func (s *scanner) name(ns bool) (string, error) {
	src := s.src
	start, i := s.pos, s.pos
	ascii, colons := true, 0
	for ; i < len(src); i++ {
		if c := src[i]; c >= utf8.RuneSelf {
			ascii = false
		} else if !nameByte[c] {
			break
		} else if c == ':' {
			colons++
		}
	}
	name := src[start:i]
	if name == "" {
		return "", nil
	}
	if ascii && !nameStart[name[0]] || !ascii && !isName(name) {
		return "", s.errAt(start, fmt.Sprintf("invalid XML name %q", name))
	}
	if ns && colons > 0 {
		if colons > 1 {
			return "", s.errAt(start, "name "+name+" has more than one colon")
		}
		// The local part is the label, which must serialize as a name.
		if _, local := splitName(name); !isName(local) {
			return "", s.errAt(start, "the local part of "+name+" is not a name")
		}
	}
	s.pos = i
	return name, nil
}

// splitName splits a name at its colon into prefix and local part, when the
// colon splits it into two non-empty halves; otherwise the local part is
// the whole name.
func splitName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// nameByte marks the ASCII bytes a name may hold; nameStart those it may
// begin with.
var nameByte, nameStart = func() (more, first [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		first[c] = letter
		more[c] = letter || c >= '0' && c <= '9' || c == '.' || c == '-'
	}
	return more, first
}()

// isName reports whether s is a name: its first character a letter, '_' or
// ':', the rest letters, digits or name characters, as XML 1.0's Appendix B
// classes them.
func isName(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if i == 0 && !nameStart[c] || !nameByte[c] {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || !inRanges(letters, r) && (i == 0 || !inRanges(nameChars, r)) {
			return false
		}
		i += n
	}
	return true
}

// inRanges reports whether r lies in one of the inclusive ranges, listed as
// ascending bounds.
func inRanges(ranges []uint16, r rune) bool {
	if r > 0xFFFF {
		return false
	}
	// The first bound above r: r is in a range if that bound is a range's
	// end (odd index), or r equals the bound before it, a range's start.
	lo, hi := 0, len(ranges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rune(ranges[m]) < r {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(ranges) && (lo%2 == 1 || rune(ranges[lo]) == r)
}

// letters are XML 1.0 Appendix B's Letter class (BaseChar | Ideographic)
// above ASCII, as inclusive ranges; nameChars the rest of NameChar above
// ASCII (CombiningChar | Digit | Extender). They are the classes
// encoding/xml checks names against.
var letters = []uint16{
	0x00C0, 0x00D6, 0x00D8, 0x00F6, 0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148, 0x014A, 0x017E,
	0x0180, 0x01C3, 0x01CD, 0x01F0, 0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8, 0x02BB, 0x02C1,
	0x0386, 0x0386, 0x0388, 0x038A, 0x038C, 0x038C, 0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6,
	0x03DA, 0x03DA, 0x03DC, 0x03DC, 0x03DE, 0x03DE, 0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C,
	0x040E, 0x044F, 0x0451, 0x045C, 0x045E, 0x0481, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC,
	0x04D0, 0x04EB, 0x04EE, 0x04F5, 0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586,
	0x05D0, 0x05EA, 0x05F0, 0x05F2, 0x0621, 0x063A, 0x0641, 0x064A, 0x0671, 0x06B7, 0x06BA, 0x06BE,
	0x06C0, 0x06CE, 0x06D0, 0x06D3, 0x06D5, 0x06D5, 0x06E5, 0x06E6, 0x0905, 0x0939, 0x093D, 0x093D,
	0x0958, 0x0961, 0x0985, 0x098C, 0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2,
	0x09B6, 0x09B9, 0x09DC, 0x09DD, 0x09DF, 0x09E1, 0x09F0, 0x09F1, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10,
	0x0A13, 0x0A28, 0x0A2A, 0x0A30, 0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A59, 0x0A5C,
	0x0A5E, 0x0A5E, 0x0A72, 0x0A74, 0x0A85, 0x0A8B, 0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8,
	0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3, 0x0AB5, 0x0AB9, 0x0ABD, 0x0ABD, 0x0AE0, 0x0AE0, 0x0B05, 0x0B0C,
	0x0B0F, 0x0B10, 0x0B13, 0x0B28, 0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39, 0x0B3D, 0x0B3D,
	0x0B5C, 0x0B5D, 0x0B5F, 0x0B61, 0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A,
	0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F, 0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9,
	0x0C05, 0x0C0C, 0x0C0E, 0x0C10, 0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C60, 0x0C61,
	0x0C85, 0x0C8C, 0x0C8E, 0x0C90, 0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CDE, 0x0CDE,
	0x0CE0, 0x0CE1, 0x0D05, 0x0D0C, 0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D60, 0x0D61,
	0x0E01, 0x0E2E, 0x0E30, 0x0E30, 0x0E32, 0x0E33, 0x0E40, 0x0E45, 0x0E81, 0x0E82, 0x0E84, 0x0E84,
	0x0E87, 0x0E88, 0x0E8A, 0x0E8A, 0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3,
	0x0EA5, 0x0EA5, 0x0EA7, 0x0EA7, 0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB0, 0x0EB2, 0x0EB3,
	0x0EBD, 0x0EBD, 0x0EC0, 0x0EC4, 0x0F40, 0x0F47, 0x0F49, 0x0F69, 0x10A0, 0x10C5, 0x10D0, 0x10F6,
	0x1100, 0x1100, 0x1102, 0x1103, 0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C, 0x110E, 0x1112,
	0x113C, 0x113C, 0x113E, 0x113E, 0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E, 0x1150, 0x1150,
	0x1154, 0x1155, 0x1159, 0x1159, 0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165, 0x1167, 0x1167,
	0x1169, 0x1169, 0x116D, 0x116E, 0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E, 0x11A8, 0x11A8,
	0x11AB, 0x11AB, 0x11AE, 0x11AF, 0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2, 0x11EB, 0x11EB,
	0x11F0, 0x11F0, 0x11F9, 0x11F9, 0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15, 0x1F18, 0x1F1D,
	0x1F20, 0x1F45, 0x1F48, 0x1F4D, 0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B, 0x1F5D, 0x1F5D,
	0x1F5F, 0x1F7D, 0x1F80, 0x1FB4, 0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4, 0x1FC6, 0x1FCC,
	0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB, 0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC, 0x2126, 0x2126,
	0x212A, 0x212B, 0x212E, 0x212E, 0x2180, 0x2182, 0x3007, 0x3007, 0x3021, 0x3029, 0x3041, 0x3094,
	0x30A1, 0x30FA, 0x3105, 0x312C, 0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}

var nameChars = []uint16{
	0x00B7, 0x00B7, 0x02D0, 0x02D1, 0x0300, 0x0345, 0x0360, 0x0361, 0x0387, 0x0387, 0x0483, 0x0486,
	0x0591, 0x05A1, 0x05A3, 0x05B9, 0x05BB, 0x05BD, 0x05BF, 0x05BF, 0x05C1, 0x05C2, 0x05C4, 0x05C4,
	0x0640, 0x0640, 0x064B, 0x0652, 0x0660, 0x0669, 0x0670, 0x0670, 0x06D6, 0x06E4, 0x06E7, 0x06E8,
	0x06EA, 0x06ED, 0x06F0, 0x06F9, 0x0901, 0x0903, 0x093C, 0x093C, 0x093E, 0x094D, 0x0951, 0x0954,
	0x0962, 0x0963, 0x0966, 0x096F, 0x0981, 0x0983, 0x09BC, 0x09BC, 0x09BE, 0x09C4, 0x09C7, 0x09C8,
	0x09CB, 0x09CD, 0x09D7, 0x09D7, 0x09E2, 0x09E3, 0x09E6, 0x09EF, 0x0A02, 0x0A02, 0x0A3C, 0x0A3C,
	0x0A3E, 0x0A42, 0x0A47, 0x0A48, 0x0A4B, 0x0A4D, 0x0A66, 0x0A71, 0x0A81, 0x0A83, 0x0ABC, 0x0ABC,
	0x0ABE, 0x0AC5, 0x0AC7, 0x0AC9, 0x0ACB, 0x0ACD, 0x0AE6, 0x0AEF, 0x0B01, 0x0B03, 0x0B3C, 0x0B3C,
	0x0B3E, 0x0B43, 0x0B47, 0x0B48, 0x0B4B, 0x0B4D, 0x0B56, 0x0B57, 0x0B66, 0x0B6F, 0x0B82, 0x0B83,
	0x0BBE, 0x0BC2, 0x0BC6, 0x0BC8, 0x0BCA, 0x0BCD, 0x0BD7, 0x0BD7, 0x0BE7, 0x0BEF, 0x0C01, 0x0C03,
	0x0C3E, 0x0C44, 0x0C46, 0x0C48, 0x0C4A, 0x0C4D, 0x0C55, 0x0C56, 0x0C66, 0x0C6F, 0x0C82, 0x0C83,
	0x0CBE, 0x0CC4, 0x0CC6, 0x0CC8, 0x0CCA, 0x0CCD, 0x0CD5, 0x0CD6, 0x0CE6, 0x0CEF, 0x0D02, 0x0D03,
	0x0D3E, 0x0D43, 0x0D46, 0x0D48, 0x0D4A, 0x0D4D, 0x0D57, 0x0D57, 0x0D66, 0x0D6F, 0x0E31, 0x0E31,
	0x0E34, 0x0E3A, 0x0E46, 0x0E4E, 0x0E50, 0x0E59, 0x0EB1, 0x0EB1, 0x0EB4, 0x0EB9, 0x0EBB, 0x0EBC,
	0x0EC6, 0x0EC6, 0x0EC8, 0x0ECD, 0x0ED0, 0x0ED9, 0x0F18, 0x0F19, 0x0F20, 0x0F29, 0x0F35, 0x0F35,
	0x0F37, 0x0F37, 0x0F39, 0x0F39, 0x0F3E, 0x0F3F, 0x0F71, 0x0F84, 0x0F86, 0x0F8B, 0x0F90, 0x0F95,
	0x0F97, 0x0F97, 0x0F99, 0x0FAD, 0x0FB1, 0x0FB7, 0x0FB9, 0x0FB9, 0x20D0, 0x20DC, 0x20E1, 0x20E1,
	0x3005, 0x3005, 0x302A, 0x302F, 0x3031, 0x3035, 0x3099, 0x309A, 0x309D, 0x309E, 0x30FC, 0x30FE,
}
