package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/xmltree"
)

// This file is the wire encoder. The view, xpath and update handlers write
// their bodies from what the epoch or the apply's report already holds —
// view rows, image nodes, Dewey IDs, per-view row counts — into one pooled
// buffer, byte for byte what encoding/json makes of ViewResponse,
// XPathResponse and UpdateResponse (field order, omitempty, HTML-safe
// escaping, trailing newline; FuzzEncodeMatchesEncodingJSON holds it to
// that). No wire struct, ID string or string value is built on the way, so
// a request allocates what answering it takes and nothing for encoding it.
// The request bodies internal/client sends, UpdateRequest and
// CreateDBRequest, are appended here too (AppendJSON), byte for byte what
// json.Marshal makes of them.

// bodyPool holds response buffers between requests. A buffer grows to the
// largest body it has carried and is let go by the collector, not by a size
// cap: the bodies that cost most to regrow are the large ones.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody sends one fully assembled 200 response. The body exists before
// the header is committed, so it carries a Content-Length (a client can
// read it into one exactly-sized buffer) and goes out in one Write.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

const hexDigits = "0123456789abcdef"

// jsonWidth is how many bytes appendJSONString writes for each byte below
// utf8.RuneSelf: 1 for one it copies, 2 for a short escape (\n, \"), 6
// for a \u00XX one. A byte of a multi-byte sequence reads 0: its rune
// decides.
var jsonWidth = func() (t [256]uint8) {
	for b := 0; b < utf8.RuneSelf; b++ {
		switch {
		case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
			t[b] = 2
		case b < ' ' || b == '<' || b == '>' || b == '&':
			t[b] = 6
		default:
			t[b] = 1
		}
	}
	return t
}()

// appendJSONString appends s as a JSON string literal the way
// encoding/json does with HTML escaping on: control bytes, quote,
// backslash, <, > and & escaped, each invalid UTF-8 byte replaced by the
// escape \ufffd, and U+2028/U+2029 escaped.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonWidth[b] == 1 {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonStringLen returns how many bytes appendJSONString appends for s.
func jsonStringLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		if w := jsonWidth[s[i]]; w != 0 {
			n += int(w)
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
			n += 6
		} else {
			n += size
		}
		i += size
	}
	return n
}

// quoteTail replaces the raw bytes dst[from:] by their JSON string literal.
// It is how a value assembled in place — an ID's rendering, an element's
// concatenated text — gets escaped as one string (an escape can span two
// text nodes) without being built as a string first: the literal is
// appended after the raw bytes and then moved down over them.
func quoteTail(dst []byte, from int) []byte {
	raw := len(dst)
	dst = appendJSONString(dst, dst[from:raw])
	return dst[:from+copy(dst[from:], dst[raw:])]
}

// appendTextValue appends n's XPath string value (xmltree.Node.StringValue)
// as a JSON string literal.
func appendTextValue(dst []byte, n *xmltree.Node) []byte {
	if n.Kind != xmltree.Element {
		return appendJSONString(dst, n.Value())
	}
	from := len(dst)
	return quoteTail(appendRawText(dst, n), from)
}

func appendRawText(dst []byte, n *xmltree.Node) []byte {
	for k := n.Kids(); k.Next(); {
		c := k.Node()
		switch c.Kind {
		case xmltree.Text:
			dst = append(dst, c.Value()...)
		case xmltree.Element:
			dst = appendRawText(dst, c)
		}
	}
	return dst
}

// appendEnvelope opens a response object with the two fields every
// data-plane response starts with.
func appendEnvelope(dst []byte, snap *core.Snapshot) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = appendJSONString(dst, snap.Tenant)
	dst = append(dst, `,"version":`...)
	return strconv.AppendUint(dst, snap.Version, 10)
}

// appendViewResponse appends the ViewResponse body for one view of an epoch.
func appendViewResponse(dst []byte, snap *core.Snapshot, vs *core.ViewSnapshot) []byte {
	dst = appendEnvelope(dst, snap)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, vs.Name)
	dst = append(dst, `,"rows":[`...)
	first := true
	vs.Rows.EachLeaf(func(leaf []algebra.Row) bool {
		for i := range leaf {
			row := &leaf[i]
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, `{"count":`...)
			dst = strconv.AppendInt(dst, int64(row.Count), 10)
			dst = append(dst, `,"entries":[`...)
			for j := range vs.Shape.Width() {
				e := vs.Shape.Entry(*row, j)
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"label":`...)
				dst = appendJSONString(dst, vs.Pattern.Nodes[e.NodeIdx].Label)
				dst = append(dst, `,"id":`...)
				from := len(dst)
				dst = quoteTail(e.ID.AppendString(dst), from)
				if e.Val != "" {
					dst = append(dst, `,"val":`...)
					dst = appendJSONString(dst, e.Val)
				}
				if e.Cont != "" {
					dst = append(dst, `,"cont":`...)
					dst = appendJSONString(dst, e.Cont)
				}
				dst = append(dst, '}')
			}
			dst = append(dst, `]}`...)
		}
		return true
	})
	return append(dst, "]}\n"...)
}

// appendXPathHead appends an XPathResponse body up to its matches array
// (appendNodeMatches, appendPlanMatches or cached bytes), which the caller
// follows with xpathTail. The plan is part of the body only under explain.
func appendXPathHead(dst []byte, snap *core.Snapshot, query, plan string, explain bool) []byte {
	dst = appendEnvelope(dst, snap)
	dst = append(dst, `,"query":`...)
	dst = appendJSONString(dst, query)
	if explain && plan != "" {
		dst = append(dst, `,"plan":`...)
		dst = appendJSONString(dst, plan)
	}
	return append(dst, `,"matches":`...)
}

const xpathTail = "}\n"

// appendMatchHead appends one MatchJSON object up to its value, which the
// caller appends, followed by the closing brace.
func appendMatchHead(dst []byte, first bool, id dewey.ID, label string) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"id":`...)
	from := len(dst)
	dst = quoteTail(id.AppendString(dst), from)
	dst = append(dst, `,"label":`...)
	dst = appendJSONString(dst, label)
	return append(dst, `,"value":`...)
}

// appendNodeMatches appends the matches array of a tree walk's result.
func appendNodeMatches(dst []byte, nodes []*xmltree.Node) []byte {
	dst = append(dst, '[')
	for i, n := range nodes {
		dst = appendMatchHead(dst, i == 0, n.ID(), n.Label())
		dst = appendTextValue(dst, n)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendRowMatch appends one MatchJSON object for a stored node's entry.
func appendRowMatch(dst []byte, first bool, label string, e *algebra.RowEntry) []byte {
	dst = appendMatchHead(dst, first, e.ID, label)
	dst = appendJSONString(dst, e.Val)
	return append(dst, '}')
}

// appendUpdateResponse appends the UpdateResponse body for an applied
// statement: the epoch that reflects it and the report's per-view counts.
func appendUpdateResponse(dst []byte, tenant string, version uint64, rep *core.Report) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = appendJSONString(dst, tenant)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, version, 10)
	dst = append(dst, `,"targets":`...)
	dst = strconv.AppendInt(dst, int64(rep.Targets), 10)
	dst = append(dst, `,"views":[`...)
	for i := range rep.Views {
		vr := &rep.Views[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, vr.View.Name)
		dst = append(dst, `,"rows_added":`...)
		dst = strconv.AppendInt(dst, int64(vr.RowsAdded), 10)
		dst = append(dst, `,"rows_removed":`...)
		dst = strconv.AppendInt(dst, int64(vr.RowsRemoved), 10)
		dst = append(dst, `,"rows_modified":`...)
		dst = strconv.AppendInt(dst, int64(vr.RowsModified), 10)
		if vr.Panicked {
			dst = append(dst, `,"recomputed":true`...)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// AppendJSON appends the request's body, what json.Marshal makes of it,
// growing dst once, to the body's exact length: a statement's markup is
// mostly escapes, six bytes for each < and >.
func (r *UpdateRequest) AppendJSON(dst []byte) []byte {
	if n := len(`{"statement":}`) + jsonStringLen(r.Statement); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, `{"statement":`...)
	dst = appendJSONString(dst, r.Statement)
	return append(dst, '}')
}

// AppendJSON appends the request's body, what json.Marshal makes of it,
// growing dst once, to the body's exact length: a document's markup is
// mostly escapes, as a statement's is.
func (r *CreateDBRequest) AppendJSON(dst []byte) []byte {
	n := len(`{"name":}`) + jsonStringLen(r.Name)
	if r.Document != "" {
		n += len(`,"document":`) + jsonStringLen(r.Document)
	}
	if len(r.Views) > 0 {
		n += len(`,"views":[]`) + len(r.Views) - 1
		for i := range r.Views {
			n += len(`{"name":,"pattern":}`) + jsonStringLen(r.Views[i].Name) + jsonStringLen(r.Views[i].Pattern)
		}
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, r.Name)
	if r.Document != "" {
		dst = append(dst, `,"document":`...)
		dst = appendJSONString(dst, r.Document)
	}
	if len(r.Views) > 0 {
		dst = append(dst, `,"views":[`...)
		for i := range r.Views {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = appendJSONString(dst, r.Views[i].Name)
			dst = append(dst, `,"pattern":`...)
			dst = appendJSONString(dst, r.Views[i].Pattern)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}
