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

// This file is the read path's encoder. The view and xpath handlers write
// their bodies from what the epoch already holds — view rows, image nodes,
// Dewey IDs — into one pooled buffer, byte for byte what encoding/json
// makes of ViewResponse and XPathResponse (field order, omitempty, HTML-safe
// escaping, trailing newline; FuzzEncodeMatchesEncodingJSON holds it to
// that). No wire struct, ID string or string value is built on the way, so
// a read allocates what evaluating it takes and nothing for encoding it.

// bodyPool holds response buffers between reads. A buffer grows to the
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

// appendJSONString appends s as a JSON string literal the way
// encoding/json does with HTML escaping on: control bytes, quote,
// backslash, <, > and & escaped, each invalid UTF-8 byte replaced by the
// escape \ufffd, and U+2028/U+2029 escaped.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
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
		return appendJSONString(dst, n.Value)
	}
	from := len(dst)
	return quoteTail(appendRawText(dst, n), from)
}

func appendRawText(dst []byte, n *xmltree.Node) []byte {
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Text:
			dst = append(dst, c.Value...)
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
	for _, chunk := range vs.Rows {
		for i := range chunk {
			row := &chunk[i]
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, `{"count":`...)
			dst = strconv.AppendInt(dst, int64(row.Count), 10)
			dst = append(dst, `,"entries":[`...)
			for j := range row.Entries {
				e := &row.Entries[j]
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
	}
	return append(dst, "]}\n"...)
}

// appendXPathHead appends an XPathResponse body up to its matches array
// (appendNodeMatches, appendRowMatches or cached bytes), which the caller
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
		dst = appendMatchHead(dst, i == 0, n.ID, n.Label())
		dst = appendTextValue(dst, n)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendRowMatches appends the matches array of a rewrite's result: rows
// projected onto the query's one stored node, which carries ID and value.
func appendRowMatches(dst []byte, label string, rows []algebra.Row) []byte {
	dst = append(dst, '[')
	for i := range rows {
		e := &rows[i].Entries[0]
		dst = appendMatchHead(dst, i == 0, e.ID, label)
		dst = appendJSONString(dst, e.Val)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}
