package server

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// This file is the read path's decoder: encode.go's inverse, for whoever
// receives a ViewResponse or XPathResponse body. It takes the body as one
// string, sizes the result from it (strings.Count for the slices, one scan
// of the escaped literals for the arena), and fills one exactly-sized slice
// per level in a single pass. A literal without an escape is decoded to a
// substring of the body, one with an escape into the shared arena, so a
// decode allocates the arena and two or three slices — not a string per
// field and a doubling slice per row — and a decoded response's strings
// alias its body: holding one ID holds the whole body (strings.Clone what
// outlives the response).
//
// The scanner accepts exactly the grammar encode.go writes — fixed key
// order, no whitespace but the one trailing newline, plain integers, the
// escapes appendJSONString produces — into a destination that holds no
// slice yet, and declines everything else: whitespace, reordered, unknown,
// duplicate or case-variant keys, null, surrogate escapes, \/, invalid
// UTF-8, control bytes, any other number form, a destination whose slice
// encoding/json would merge into. A declined body goes through
// encoding/json on a method-less alias of the type, so the answer (and the
// error) for anything our own server did not write is the library's.
// FuzzDecodeMatchesEncodingJSON holds the two to each other.

// decodeDeclined counts bodies handed to encoding/json; tests read it to
// show that nothing our own server wrote takes the fallback.
var decodeDeclined atomic.Uint64

type (
	viewResponseWire  ViewResponse
	xpathResponseWire XPathResponse
)

// UnmarshalJSON decodes a view body. The copy of data is the one the
// json.Unmarshaler contract requires of an implementation that retains it.
func (v *ViewResponse) UnmarshalJSON(data []byte) error { return v.UnmarshalString(string(data)) }

// UnmarshalString is UnmarshalJSON for a caller that holds the body as a
// string nothing will write to again: the response aliases it, uncopied.
func (v *ViewResponse) UnmarshalString(body string) error {
	if v.decode(body) {
		return nil
	}
	decodeDeclined.Add(1)
	return json.Unmarshal([]byte(body), (*viewResponseWire)(v))
}

// UnmarshalJSON decodes an xpath body; see ViewResponse.UnmarshalJSON.
func (x *XPathResponse) UnmarshalJSON(data []byte) error { return x.UnmarshalString(string(data)) }

// UnmarshalString decodes an xpath body; see ViewResponse.UnmarshalString.
func (x *XPathResponse) UnmarshalString(body string) error {
	if x.decode(body) {
		return nil
	}
	decodeDeclined.Add(1)
	return json.Unmarshal([]byte(body), (*xpathResponseWire)(x))
}

// decode fills v from a body appendViewResponse wrote and reports whether
// it did; v is untouched when it declines.
func (v *ViewResponse) decode(body string) bool {
	if cap(v.Rows) != 0 {
		return false // encoding/json would decode into the rows already there
	}
	d := bodyScanner{s: body}
	out := ViewResponse{}
	if !(d.skip(`{"tenant":`) && d.str(&out.Tenant) && d.skip(`,"version":`) && d.uint(&out.Version) &&
		d.skip(`,"name":`) && d.str(&out.Name) && d.skip(`,"rows":[`)) {
		return false
	}
	// A quote inside a literal is always escaped, so neither opener can
	// occur in one: on a body of this grammar the counts are exact.
	rows := make([]RowJSON, strings.Count(body, `{"count":`))
	entries := make([]EntryJSON, strings.Count(body, `{"label":`))
	nr, ne := 0, 0
	for ; !d.skip(`]`); nr++ {
		if nr > 0 && !d.skip(`,`) || nr == len(rows) {
			return false
		}
		row := &rows[nr]
		if !(d.skip(`{"count":`) && d.int(&row.Count) && d.skip(`,"entries":[`)) {
			return false
		}
		first := ne
		for ; !d.skip(`]`); ne++ {
			if ne > first && !d.skip(`,`) || ne == len(entries) {
				return false
			}
			e := &entries[ne]
			if !(d.skip(`{"label":`) && d.str(&e.Label) && d.skip(`,"id":`) && d.str(&e.ID)) ||
				d.skip(`,"val":`) && !d.str(&e.Val) ||
				d.skip(`,"cont":`) && !d.str(&e.Cont) ||
				!d.skip(`}`) {
				return false
			}
		}
		// Capped, so that appending to one row's entries cannot write into
		// the next row's.
		row.Entries = entries[first:ne:ne]
		if !d.skip(`}`) {
			return false
		}
	}
	if nr != len(rows) || ne != len(entries) || !d.end() {
		return false
	}
	out.Rows = rows
	*v = out
	return true
}

// decode fills x from a body appendXPath wrote and reports whether it did;
// x is untouched when it declines. A body without a plan leaves x.Plan as
// it was, as encoding/json does.
func (x *XPathResponse) decode(body string) bool {
	if cap(x.Matches) != 0 {
		return false
	}
	d := bodyScanner{s: body}
	out := XPathResponse{Plan: x.Plan}
	if !(d.skip(`{"tenant":`) && d.str(&out.Tenant) && d.skip(`,"version":`) && d.uint(&out.Version) &&
		d.skip(`,"query":`) && d.str(&out.Query)) ||
		d.skip(`,"plan":`) && !d.str(&out.Plan) ||
		!d.skip(`,"matches":[`) {
		return false
	}
	matches := make([]MatchJSON, strings.Count(body, `{"id":`))
	n := 0
	for ; !d.skip(`]`); n++ {
		if n > 0 && !d.skip(`,`) || n == len(matches) {
			return false
		}
		m := &matches[n]
		if !(d.skip(`{"id":`) && d.str(&m.ID) && d.skip(`,"label":`) && d.str(&m.Label) &&
			d.skip(`,"value":`) && d.str(&m.Value) && d.skip(`}`)) {
			return false
		}
	}
	if n != len(matches) || !d.end() {
		return false
	}
	out.Matches = matches
	*x = out
	return true
}

// bodyScanner is a cursor over one body. Each method consumes what it
// names at the cursor and reports whether it was there; after a false the
// scanner is spent and the caller declines. It is used by pointer only:
// the arena is a strings.Builder.
type bodyScanner struct {
	s     string
	i     int
	arena strings.Builder // the unescaped text of every literal that has an escape
}

func (d *bodyScanner) skip(token string) bool {
	if !strings.HasPrefix(d.s[d.i:], token) {
		return false
	}
	d.i += len(token)
	return true
}

// end consumes the object's closing brace and the newline json.Encoder
// ends a value with (json.Decoder does not pass it on), up to the end of
// the body.
func (d *bodyScanner) end() bool {
	return d.skip("}") && (d.i == len(d.s) || d.s[d.i:] == "\n")
}

// uint consumes a JSON integer without sign, fraction or exponent that fits
// a uint64. What follows it is the caller's next token, so "1e3" and "1.5"
// decline there.
func (d *bodyScanner) uint(dst *uint64) bool {
	s, start := d.s, d.i
	for d.i < len(s) && '0' <= s[d.i] && s[d.i] <= '9' {
		d.i++
	}
	digits := s[start:d.i]
	if len(digits) > 1 && digits[0] == '0' {
		return false
	}
	v, err := strconv.ParseUint(digits, 10, 64) // no digits and overflow are errors
	*dst = v
	return err == nil
}

// int consumes what strconv.AppendInt writes for an int.
func (d *bodyScanner) int(dst *int) bool {
	neg := d.skip("-")
	var v uint64
	if !d.uint(&v) || neg && v == 0 {
		return false
	}
	if neg {
		if v > -math.MinInt {
			return false
		}
		*dst = int(-v) // two's complement: exact for MinInt too
		return true
	}
	if v > math.MaxInt {
		return false
	}
	*dst = int(v)
	return true
}

// str consumes a string literal. Without an escape *dst is the literal's
// bytes where they lie in the body; with one it is their unescaped text,
// appended to the arena, which the first escape sizes (reserve) so that it
// never moves. A
// byte encoding/json would reject (a control byte) or replace (invalid
// UTF-8) declines.
func (d *bodyScanner) str(dst *string) bool {
	s := d.s
	if d.i >= len(s) || s[d.i] != '"' {
		return false
	}
	run := d.i + 1 // start of the plain bytes not yet in the arena
	from := -1     // where this literal starts in the arena, once it has an escape
	for i := run; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			if from < 0 {
				*dst = s[run:i]
			} else {
				d.arena.WriteString(s[run:i])
				*dst = d.arena.String()[from:]
			}
			d.i = i + 1
			return true
		case c == '\\':
			r, width := unescape(s, i)
			if width == 0 {
				return false
			}
			if from < 0 {
				if d.arena.Cap() == 0 {
					d.reserve(i)
				}
				from = d.arena.Len()
			}
			d.arena.WriteString(s[run:i])
			d.arena.WriteRune(r)
			i += width
			run = i
		case c < ' ':
			return false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	return false
}

// unescape decodes the escape sequence whose backslash is s[i] into its
// rune and its width in s. Width 0 declines: a truncated or malformed
// sequence, \/ (never written by appendJSONString), and a \u surrogate,
// which encoding/json pairs up or replaces.
func unescape(s string, i int) (r rune, width int) {
	if i+1 >= len(s) {
		return 0, 0
	}
	switch c := s[i+1]; c {
	case '"', '\\':
		return rune(c), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if i+6 > len(s) {
			return 0, 0
		}
		for _, c := range []byte(s[i+2 : i+6]) {
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(c)
		}
		if 0xD800 <= r && r <= 0xDFFF {
			return 0, 0
		}
		return r, 6
	}
	return 0, 0
}

// reserve sizes the arena, at the body's first backslash s[i], to exactly
// the unescaped text of the literals that have one. They are found from
// the backslashes alone: the first backslash of a literal has no quote
// between the literal's opening quote and itself (a quote inside a literal
// is escaped, and that escape would be the first backslash), and from there
// the literal is walked to its closing quote. On a body that is not of the
// grammar the figure is merely a number: the scan declines such a body,
// and an arena that does outgrow it only moves.
func (d *bodyScanner) reserve(i int) {
	s, n := d.s, 0
	for k := 0; k >= 0; k = strings.IndexByte(s[i:], '\\') {
		i += k
		n += i - (strings.LastIndexByte(s[:i], '"') + 1)
		for i < len(s) && s[i] != '"' {
			if s[i] != '\\' {
				i++
				n++
				continue
			}
			r, width := unescape(s, i)
			if width == 0 {
				i = len(s)
				break
			}
			i += width
			n += utf8.RuneLen(r)
		}
	}
	d.arena.Grow(n)
}
