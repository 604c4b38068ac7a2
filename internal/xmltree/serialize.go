package xmltree

import (
	"bufio"
	"io"
	"unicode/utf8"
)

// xmlSink is what the serializer writes to: buf, which String, Content
// and AppendContent return, or for Serialize a bufio.Writer, which keeps
// its first error for Flush. It is a concrete type, not an interface, so
// that a caller's sink stays on the caller's stack: AppendContent
// allocates nothing of its own.
type xmlSink struct {
	buf []byte
	w   *bufio.Writer // Serialize's; nil when buf is the result
}

func (s *xmlSink) putByte(c byte) {
	if s.w != nil {
		s.w.WriteByte(c)
		return
	}
	s.buf = append(s.buf, c)
}

func (s *xmlSink) put(x string) {
	if s.w != nil {
		s.w.WriteString(x)
		return
	}
	s.buf = append(s.buf, x...)
}

func (s *xmlSink) putRune(r rune) {
	if s.w != nil {
		s.w.WriteRune(r)
		return
	}
	s.buf = utf8.AppendRune(s.buf, r)
}

// Serialize writes the document as XML text, streaming: what is held at any
// moment is one buffer (w itself when it is a *bufio.Writer, which is then
// flushed), never the whole text.
func (d *Document) Serialize(w io.Writer) error {
	s := xmlSink{w: bufio.NewWriter(w)}
	serializeNode(&s, d.Root)
	return s.w.Flush()
}

// String returns the serialized document.
func (d *Document) String() string { return d.Root.Content() }

func serializeNode(b *xmlSink, n *Node) {
	switch n.Kind {
	case Text:
		escapeText(b, n.Value())
	case Attribute:
		// Attributes are serialized by their owning element.
	case Element:
		label := n.Label()
		b.putByte('<')
		b.put(label)
		k := n.Kids()
		more := k.Next()
		for ; more && k.Node().Kind == Attribute; more = k.Next() {
			a := k.Node()
			b.putByte(' ')
			b.put(a.Label()[1:])
			b.put(`="`)
			escapeAttr(b, a.Value())
			b.putByte('"')
		}
		if !more {
			b.put("/>")
			return
		}
		b.putByte('>')
		for ; more; more = k.Next() {
			serializeNode(b, k.Node())
		}
		b.put("</")
		b.put(label)
		b.putByte('>')
	}
}

// escapeText and escapeAttr escape what a parser would read differently
// from the value: markup, and '\r', which would read as a line end, '\n'.
func escapeText(b *xmlSink, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.put("&amp;")
		case '<':
			b.put("&lt;")
		case '>':
			b.put("&gt;")
		case '\r':
			b.put("&#xD;")
		default:
			b.putRune(r)
		}
	}
}

func escapeAttr(b *xmlSink, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.put("&amp;")
		case '<':
			b.put("&lt;")
		case '"':
			b.put("&quot;")
		case '\r':
			b.put("&#xD;")
		default:
			b.putRune(r)
		}
	}
}
