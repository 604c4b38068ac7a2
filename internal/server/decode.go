package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// This file is the wire decoder: encode.go's inverse, for whoever
// receives a body it wrote — a client a ViewResponse, XPathResponse or
// UpdateResponse, the server an UpdateRequest or CreateDBRequest. It takes
// the body as one string, sizes the result from it (strings.Count for the
// slices, one scan of the escaped literals for the arena), and fills one
// exactly-sized slice per level in a single pass. A literal without an
// escape is decoded to a substring of the body, one with an escape into
// the shared arena, so a decode allocates the arena and two or three
// slices — not a string per field and a doubling slice per row — and a
// decoded value's strings alias its body: holding one ID holds the whole
// body (strings.Clone what outlives the response).
//
// The scanner accepts exactly the grammar encode.go writes — fixed key
// order, no whitespace but the one trailing newline, plain integers, the
// escapes appendJSONString produces — into a destination that holds no
// slice yet, and declines everything else: whitespace, reordered, unknown,
// duplicate or case-variant keys, null, surrogate escapes, \/, invalid
// UTF-8, control bytes, any other number form, a destination whose slice
// encoding/json would merge into. A declined body goes through
// encoding/json on a method-less alias of the type, so the answer (and the
// error) for anything our own side did not write is the library's — for a
// request, that includes refusing anything but whitespace after the value.
// FuzzDecodeMatchesEncodingJSON and FuzzRequestDecodeMatchesEncodingJSON
// hold the two to each other.

// decodeDeclined counts response bodies handed to encoding/json, and
// requestDeclined request bodies; tests read them to show that nothing our
// own server or client wrote takes the fallback.
var decodeDeclined, requestDeclined atomic.Uint64

type (
	viewResponseWire    ViewResponse
	xpathResponseWire   XPathResponse
	updateResponseWire  UpdateResponse
	updateRequestWire   UpdateRequest
	createDBRequestWire CreateDBRequest
)

// unmarshal finishes an UnmarshalString: nothing to do when the scanner
// took the body, encoding/json on the method-less alias wire when it
// declined, counted in declined.
func unmarshal(body string, scanned bool, declined *atomic.Uint64, wire any) error {
	if scanned {
		return nil
	}
	declined.Add(1)
	return json.Unmarshal([]byte(body), wire)
}

// UnmarshalJSON decodes a view body. The copy of data is the one the
// json.Unmarshaler contract requires of an implementation that retains it.
func (v *ViewResponse) UnmarshalJSON(data []byte) error { return v.UnmarshalString(string(data)) }

// UnmarshalString is UnmarshalJSON for a caller that holds the body as a
// string nothing will write to again: the response aliases it, uncopied.
func (v *ViewResponse) UnmarshalString(body string) error {
	return unmarshal(body, v.decode(body), &decodeDeclined, (*viewResponseWire)(v))
}

// UnmarshalJSON decodes an xpath body; see ViewResponse.UnmarshalJSON.
func (x *XPathResponse) UnmarshalJSON(data []byte) error { return x.UnmarshalString(string(data)) }

// UnmarshalString decodes an xpath body; see ViewResponse.UnmarshalString.
func (x *XPathResponse) UnmarshalString(body string) error {
	return unmarshal(body, x.decode(body), &decodeDeclined, (*xpathResponseWire)(x))
}

// UnmarshalJSON decodes an update answer; see ViewResponse.UnmarshalJSON.
func (u *UpdateResponse) UnmarshalJSON(data []byte) error { return u.UnmarshalString(string(data)) }

// UnmarshalString decodes an update answer; see ViewResponse.UnmarshalString.
func (u *UpdateResponse) UnmarshalString(body string) error {
	return unmarshal(body, u.decode(body), &decodeDeclined, (*updateResponseWire)(u))
}

// UnmarshalJSON decodes an update request; see ViewResponse.UnmarshalJSON.
func (r *UpdateRequest) UnmarshalJSON(data []byte) error { return r.UnmarshalString(string(data)) }

// UnmarshalString decodes an update request; see ViewResponse.UnmarshalString.
func (r *UpdateRequest) UnmarshalString(body string) error {
	return unmarshal(body, r.decode(body), &requestDeclined, (*updateRequestWire)(r))
}

// UnmarshalJSON decodes a create request; see ViewResponse.UnmarshalJSON.
func (r *CreateDBRequest) UnmarshalJSON(data []byte) error { return r.UnmarshalString(string(data)) }

// UnmarshalString decodes a create request; see ViewResponse.UnmarshalString.
func (r *CreateDBRequest) UnmarshalString(body string) error {
	return unmarshal(body, r.decode(body), &requestDeclined, (*createDBRequestWire)(r))
}

// maxReserve bounds what a declared length makes ReadBody allocate before
// any of the body has arrived.
const maxReserve = 1 << 20

// ReadBody reads a body that declared n bytes (n < 0: none declared) and
// may hold at most limit (below math.MaxInt64) into one buffer, for a
// decoder to alias: nothing writes to it again. A declared length is a
// claim, not an order to allocate: at most 1 MiB is reserved on its say-so
// and the buffer grows as bytes arrive, so a header that lies costs what
// was sent, not what was claimed. The read stops after n bytes or at the
// end of the stream, whichever comes first; a caller that needs all n
// compares. A body that declares more than limit is an *http.MaxBytesError
// before any of it is read, one that sends more once a byte past limit has
// arrived.
func ReadBody(r io.Reader, n, limit int64) ([]byte, error) {
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	want, reserve := n, n
	if n < 0 {
		want, reserve = limit+1, min(limit+1, 512)
	}
	raw := make([]byte, 0, min(reserve, maxReserve))
	for int64(len(raw)) < want {
		if len(raw) == cap(raw) {
			raw = slices.Grow(raw, int(min(want-int64(len(raw)), int64(len(raw)))))
		}
		k, err := r.Read(raw[len(raw):int(min(int64(cap(raw)), want))])
		raw = raw[:len(raw)+k]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(raw)) > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return raw, nil
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

// decode fills u from a body appendUpdateResponse wrote and reports whether
// it did; u is untouched when it declines.
func (u *UpdateResponse) decode(body string) bool {
	if cap(u.Views) != 0 {
		return false
	}
	d := bodyScanner{s: body}
	out := UpdateResponse{}
	if !(d.skip(`{"tenant":`) && d.str(&out.Tenant) && d.skip(`,"version":`) && d.uint(&out.Version) &&
		d.skip(`,"targets":`) && d.int(&out.Targets) && d.skip(`,"views":[`)) {
		return false
	}
	views := make([]UpdateViewJSON, strings.Count(body, `{"name":`))
	n := 0
	for ; !d.skip(`]`); n++ {
		if n > 0 && !d.skip(`,`) || n == len(views) {
			return false
		}
		v := &views[n]
		if !(d.skip(`{"name":`) && d.str(&v.Name) && d.skip(`,"rows_added":`) && d.int(&v.RowsAdded) &&
			d.skip(`,"rows_removed":`) && d.int(&v.RowsRemoved) && d.skip(`,"rows_modified":`) && d.int(&v.RowsModified)) {
			return false
		}
		v.Skipped = d.skip(`,"skipped":true`)
		v.Recomputed = d.skip(`,"recomputed":true`)
		if !d.skip(`}`) {
			return false
		}
	}
	if n != len(views) || !d.end() {
		return false
	}
	out.Views = views
	*u = out
	return true
}

// decode fills r from a body UpdateRequest.AppendJSON wrote and reports
// whether it did; r is untouched when it declines.
func (r *UpdateRequest) decode(body string) bool {
	d := bodyScanner{s: body}
	var out UpdateRequest
	if !(d.skip(`{"statement":`) && d.str(&out.Statement) && d.end()) {
		return false
	}
	*r = out
	return true
}

// decode fills r from a body CreateDBRequest.AppendJSON wrote and reports
// whether it did; r is untouched when it declines. A field the body leaves
// out keeps what r held, as encoding/json does.
func (r *CreateDBRequest) decode(body string) bool {
	if cap(r.Views) != 0 {
		return false
	}
	d := bodyScanner{s: body}
	out := CreateDBRequest{Document: r.Document, Views: r.Views}
	if !(d.skip(`{"name":`) && d.str(&out.Name)) || d.skip(`,"document":`) && !d.str(&out.Document) {
		return false
	}
	if d.skip(`,"views":[`) {
		views := make([]ViewSpec, strings.Count(body, `{"name":`)-1) // the request's own name opens the body
		n := 0
		for ; !d.skip(`]`); n++ {
			if n > 0 && !d.skip(`,`) || n == len(views) {
				return false
			}
			v := &views[n]
			if !(d.skip(`{"name":`) && d.str(&v.Name) && d.skip(`,"pattern":`) && d.str(&v.Pattern) && d.skip(`}`)) {
				return false
			}
		}
		if n != len(views) {
			return false
		}
		out.Views = views
	}
	if !d.end() {
		return false
	}
	*r = out
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
