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
	"unsafe"
)

// This file is the wire decoder: encode.go's inverse, for whoever
// receives a body it wrote — a client a ViewResponse, XPathResponse or
// UpdateResponse, the server an UpdateRequest or CreateDBRequest. A decode
// takes two passes. The scan sizes the slices from the body
// (strings.Count), fills one exactly-sized slice per level, leaves each
// string as its literal lies in the body and counts the length of its
// unescaped text. Once the scan has taken the whole body, own copies every
// string, unescaped, into one arena of exactly the counted size. A label
// spelled like one the body has already shown shares that label's string
// (labelSet) and is counted once. So a decode allocates two or three
// slices and one arena, not a string per field and a doubling slice per
// row.
//
// A decoded value owns its strings: none of them points into the body.
// UnmarshalJSON decodes straight from the bytes it is handed and keeps
// none of them, client.decode and decodeBody hand the buffer a body was
// read into back to a pool as soon as it is decoded, and a held ID holds
// the response's arena — its strings and nothing else — not its body. A
// create's document is the one string given an array of its own
// (ownApart): the tenant keeps the request's name and views and parses the
// document once, so a kept name must not hold the document.
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
// hold the two to each other, and hold every decoded string to lying
// outside its body.

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

// unmarshal finishes an UnmarshalJSON: nothing to do when the scanner took
// the body, encoding/json on the method-less alias wire when it declined,
// counted in declined.
func unmarshal(body []byte, scanned bool, declined *atomic.Uint64, wire any) error {
	if scanned {
		return nil
	}
	declined.Add(1)
	return json.Unmarshal(body, wire)
}

// transient is data as a string for the scanner alone, which copies
// whatever it keeps: the decoded value does not retain data, as the
// json.Unmarshaler contract asks.
func transient(data []byte) string { return unsafe.String(unsafe.SliceData(data), len(data)) }

// UnmarshalJSON decodes a view body.
func (v *ViewResponse) UnmarshalJSON(data []byte) error {
	return unmarshal(data, v.decode(transient(data)), &decodeDeclined, (*viewResponseWire)(v))
}

// UnmarshalJSON decodes an xpath body.
func (x *XPathResponse) UnmarshalJSON(data []byte) error {
	return unmarshal(data, x.decode(transient(data)), &decodeDeclined, (*xpathResponseWire)(x))
}

// UnmarshalJSON decodes an update answer.
func (u *UpdateResponse) UnmarshalJSON(data []byte) error {
	return unmarshal(data, u.decode(transient(data)), &decodeDeclined, (*updateResponseWire)(u))
}

// UnmarshalJSON decodes an update request.
func (r *UpdateRequest) UnmarshalJSON(data []byte) error {
	return unmarshal(data, r.decode(transient(data)), &requestDeclined, (*updateRequestWire)(r))
}

// UnmarshalJSON decodes a create request.
func (r *CreateDBRequest) UnmarshalJSON(data []byte) error {
	return unmarshal(data, r.decode(transient(data)), &requestDeclined, (*createDBRequestWire)(r))
}

// maxReserve bounds what a declared length makes ReadBody allocate before
// any of the body has arrived.
const maxReserve = 1 << 20

// ReadBody reads a body that declared n bytes (n < 0: none declared) and
// may hold at most limit (below math.MaxInt64) into buf's array from its
// start, and returns buf's array, or a larger one it grew into, holding
// what was read: the caller's to decode and then to pool again, error or
// not. A declared length is a claim, not an order to allocate: at most
// 1 MiB is reserved on its say-so and the buffer grows as bytes arrive, so
// a header that lies costs what was sent, not what was claimed. The read
// stops after n bytes or at the end of the stream, whichever comes first;
// a caller that needs all n compares. A body that declares more than limit
// is an *http.MaxBytesError before any of it is read, one that sends more
// once a byte past limit has arrived.
func ReadBody(buf []byte, r io.Reader, n, limit int64) ([]byte, error) {
	raw := buf[:0]
	if n > limit {
		return raw, &http.MaxBytesError{Limit: limit}
	}
	want, reserve := n, n
	if n < 0 {
		want, reserve = limit+1, min(limit+1, 512)
	}
	if reserve = min(reserve, maxReserve); int64(cap(raw)) < reserve {
		raw = make([]byte, 0, reserve)
	}
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
			return raw, err
		}
	}
	if int64(len(raw)) > limit {
		return raw, &http.MaxBytesError{Limit: limit}
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
			if !(d.skip(`{"label":`) && d.label(&e.Label) && d.skip(`,"id":`) && d.str(&e.ID)) ||
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
	d.own(&out.Tenant, &out.Name)
	for i := range entries {
		e := &entries[i]
		d.ownLabel(&e.Label)
		d.own(&e.ID, &e.Val, &e.Cont)
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
		v.Recomputed = d.skip(`,"recomputed":true`)
		if !d.skip(`}`) {
			return false
		}
	}
	if n != len(views) || !d.end() {
		return false
	}
	d.own(&out.Tenant)
	for i := range views {
		d.own(&views[i].Name)
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
	d.own(&out.Statement)
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
	if !d.skip(`{"name":`) || !d.str(&out.Name) {
		return false
	}
	// The document is counted apart from the arena and given its own
	// array (ownApart): the tenant keeps the name and the views, not the
	// document, which it parses once.
	doc := d.need
	if d.skip(`,"document":`) && !d.str(&out.Document) {
		return false
	}
	doc, d.need = d.need-doc, doc
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
	d.ownApart(&out.Document, doc)
	d.own(&out.Name)
	for i := range out.Views {
		d.own(&out.Views[i].Name, &out.Views[i].Pattern)
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
		if !(d.skip(`{"id":`) && d.str(&m.ID) && d.skip(`,"label":`) && d.label(&m.Label) &&
			d.skip(`,"value":`) && d.str(&m.Value) && d.skip(`}`)) {
			return false
		}
	}
	if n != len(matches) || !d.end() {
		return false
	}
	d.own(&out.Tenant, &out.Query, &out.Plan)
	for i := range matches {
		m := &matches[i]
		d.ownLabel(&m.Label)
		d.own(&m.ID, &m.Value)
	}
	out.Matches = matches
	*x = out
	return true
}

// bodyScanner is a cursor over one body. Each method consumes what it
// names at the cursor and reports whether it was there; after a false the
// scanner is spent and the caller declines. The scan leaves each decoded
// string as its literal lies in the body, escapes and all, and counts
// what its text needs; a decode that took the whole body then gives every
// string its own bytes (own).
type bodyScanner struct {
	s      string
	i      int
	need   int    // the unescaped length of every literal str took, a shared label once
	arena  []byte // the decoded strings' bytes, need of them: own's
	labels labelSet
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

// str consumes a string literal, sets *dst to its bytes in the body
// between the quotes and counts the length of its unescaped text in need.
// A byte encoding/json would reject (a control byte) or replace (invalid
// UTF-8) declines.
func (d *bodyScanner) str(dst *string) bool {
	s := d.s
	if d.i >= len(s) || s[d.i] != '"' {
		return false
	}
	start, shrink := d.i+1, 0 // shrink: what unescaping saves
	for i := start; i < len(s); {
		if plainByte[s[i]] {
			i++
			continue
		}
		switch c := s[i]; {
		case c == '"':
			*dst = s[start:i]
			d.need += i - start - shrink
			d.i = i + 1
			return true
		case c == '\\':
			r, width := unescape(s, i)
			if width == 0 {
				return false
			}
			shrink += width - utf8.RuneLen(r)
			i += width
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

// plainByte marks the bytes a literal holds as they are: printable ASCII
// but the quote and the backslash. Most of a body is such bytes, and one
// load per byte instead of str's comparisons pays for own's copy.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// label consumes a label literal: one spelled like one of the body's first
// eight distinct labels is that label's string and is not counted again,
// any other is str's.
func (d *bodyScanner) label(dst *string) bool {
	if k := d.labels.find(d.s[d.i:]); k >= 0 {
		*dst = d.labels.text[k]
		d.i += len(d.labels.raw[k])
		return true
	}
	at := d.i
	if !d.str(dst) {
		return false
	}
	d.labels.add(d.s[at:d.i], *dst)
	return true
}

// own points each string at ss that lies in the body at a copy of its
// unescaped text in the arena, which the first call makes, of exactly the
// size the scan counted; a string from anywhere else (a field the body
// left out keeps the destination's) stays as it is.
func (d *bodyScanner) own(ss ...*string) {
	if d.arena == nil {
		d.arena = make([]byte, 0, d.need)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(d.s)))
	for _, s := range ss {
		raw := *s
		if raw == "" {
			*s = ""
			continue
		}
		if uintptr(unsafe.Pointer(unsafe.StringData(raw)))-base >= uintptr(len(d.s)) {
			continue
		}
		from := len(d.arena)
		for {
			k := strings.IndexByte(raw, '\\')
			if k < 0 {
				d.arena = append(d.arena, raw...)
				break
			}
			r, width := unescape(raw, k) // the scan took it
			d.arena = utf8.AppendRune(append(d.arena, raw[:k]...), r)
			raw = raw[k+width:]
		}
		*s = unsafe.String(&d.arena[from], len(d.arena)-from)
	}
}

// ownLabel is own for a label, which shares its string with every label
// literal spelled like it (label).
func (d *bodyScanner) ownLabel(s *string) {
	for k := range d.labels.n {
		if unsafe.StringData(*s) == unsafe.StringData(d.labels.raw[k][1:]) {
			d.own(&d.labels.text[k])
			*s = d.labels.text[k]
			return
		}
	}
	d.own(s)
}

// ownApart is own for one string of length n, which the scan left out of
// need, into an exactly-sized array of its own rather than the arena.
func (d *bodyScanner) ownApart(s *string, n int) {
	arena := d.arena
	d.arena = make([]byte, 0, n)
	d.own(s)
	d.arena = arena
}

// labelSet holds a body's first distinct label literals, as they are
// spelled there (quotes included) and as their text: a body of view rows
// or matches names a handful of labels thousands of times over, and a
// literal spelled like an earlier one has the same text.
type labelSet struct {
	n         int
	raw, text [8]string
}

// find returns the index of the label rest begins with, or -1. A literal's
// closing quote is its first unescaped one, so a rest that begins with a
// whole literal holds that literal and no longer one.
func (l *labelSet) find(rest string) int {
	for k := range l.n {
		if strings.HasPrefix(rest, l.raw[k]) {
			return k
		}
	}
	return -1
}

func (l *labelSet) add(raw, text string) {
	if l.n < len(l.raw) {
		l.raw[l.n], l.text[l.n] = raw, text
		l.n++
	}
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
