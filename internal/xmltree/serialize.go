package xmltree

import (
	"bufio"
	"io"
	"strings"
)

// xmlSink is what the serializer writes to: a strings.Builder for String, a
// bufio.Writer for Serialize. Neither reports an error per call — a
// bufio.Writer keeps its first one for Flush.
type xmlSink interface {
	WriteByte(byte) error
	WriteRune(rune) (int, error)
	WriteString(string) (int, error)
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
		escapeText(b, n.Value)
	case Attribute:
		// Attributes are serialized by their owning element.
	case Element:
		label := n.Label()
		b.WriteByte('<')
		b.WriteString(label)
		i := 0
		for ; i < len(n.Children) && n.Children[i].Kind == Attribute; i++ {
			a := n.Children[i]
			b.WriteByte(' ')
			b.WriteString(a.Label()[1:])
			b.WriteString(`="`)
			escapeAttr(b, a.Value)
			b.WriteByte('"')
		}
		if i == len(n.Children) {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		for ; i < len(n.Children); i++ {
			serializeNode(b, n.Children[i])
		}
		b.WriteString("</")
		b.WriteString(label)
		b.WriteByte('>')
	}
}

func escapeText(b xmlSink, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
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
		default:
			b.WriteRune(r)
		}
	}
}
