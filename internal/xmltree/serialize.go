package xmltree

import (
	"bufio"
	"io"
	"strings"
	"unicode/utf8"
)

// xmlSink is what the serializer writes to: a strings.Builder for String, a
// bufio.Writer for Serialize, an appendSink for AppendContent. None reports
// an error per call — a bufio.Writer keeps its first one for Flush.
type xmlSink interface {
	WriteByte(byte) error
	WriteRune(rune) (int, error)
	WriteString(string) (int, error)
}

// appendSink is an xmlSink appending to a byte slice.
type appendSink []byte

func (s *appendSink) WriteByte(c byte) error { *s = append(*s, c); return nil }

func (s *appendSink) WriteRune(r rune) (int, error) {
	n := len(*s)
	*s = utf8.AppendRune(*s, r)
	return len(*s) - n, nil
}

func (s *appendSink) WriteString(str string) (int, error) {
	*s = append(*s, str...)
	return len(str), nil
}

// Serialize writes the document as XML text, streaming: what is held at any
// moment is one buffer (w itself when it is a *bufio.Writer, which is then
// flushed), never the whole text.
func (d *Document) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	serializeNode(bw, d.Root)
	return bw.Flush()
}

// String returns the serialized document.
func (d *Document) String() string {
	var b strings.Builder
	serializeNode(&b, d.Root)
	return b.String()
}

func serializeNode(b xmlSink, n *Node) {
	switch n.Kind {
	case Text:
		escapeText(b, n.Value())
	case Attribute:
		// Attributes are serialized by their owning element.
	case Element:
		label := n.Label()
		b.WriteByte('<')
		b.WriteString(label)
		k := n.Kids()
		more := k.Next()
		for ; more && k.Node().Kind == Attribute; more = k.Next() {
			a := k.Node()
			b.WriteByte(' ')
			b.WriteString(a.Label()[1:])
			b.WriteString(`="`)
			escapeAttr(b, a.Value())
			b.WriteByte('"')
		}
		if !more {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for ; more; more = k.Next() {
			serializeNode(b, k.Node())
		}
		b.WriteString("</")
		b.WriteString(label)
		b.WriteByte('>')
	}
}

// escapeText and escapeAttr escape what a parser would read differently
// from the value: markup, and '\r', which would read as a line end, '\n'.
func escapeText(b xmlSink, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}

func escapeAttr(b xmlSink, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '"':
			b.WriteString("&quot;")
		case '\r':
			b.WriteString("&#xD;")
		default:
			b.WriteRune(r)
		}
	}
}
