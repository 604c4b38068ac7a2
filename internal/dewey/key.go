package dewey

import (
	"encoding/binary"
	"math/bits"
)

// This file implements the order-preserving binary key every ID consists
// of. The key is built once at construction (NewRoot/Child/Decode) and makes
// the engine's hottest ID operations single string ops:
//
//	bytes order        Compare(a,b) == strings.Compare(a.key, b.key)
//	identity           Equal(a,b)   == (a.key == b.key)
//	ancestorship       IsAncestorOf(a,b) == a.key is a proper prefix of b.key
//	map keys           Key() returns the string itself, zero allocation
//
// Everything else an ID knows, its steps, is parsed back out of the key (Cursor).
//
// Layout: the key is the concatenation of one FRAME per step. A frame is
//
//	component*  ordEnd  code  [len label]
//
// where each ordinal value v is written as two components, v>>gapBits and
// v&(Gap-1), and a component is a lead byte 0x01+n followed by the n
// big-endian bytes of its value with leading zeros stripped (n is minimal,
// so the encoding is canonical and lead bytes order first by byte length,
// then bytes order by magnitude) — a load-time multiple of Gap costs three
// bytes; ordEnd is a single 0x00 byte; and code is the uvarint of the
// step's label in the process's label table (labels.go). A label the table
// refuses has code litCode and follows it literally, as a uvarint length and
// its bytes.
//
// The order this gives, and why:
//
//   - Components: shorter-big-endian means smaller value, so the 0x01+n lead
//     byte decides first; equal leads fall through to the big-endian bytes.
//     A pair (v>>gapBits, v&(Gap-1)) compared in order is v compared, since
//     the second is below Gap.
//   - Ordinal prefixes: a strict prefix ordinal emits ordEnd (0x00) where its
//     extension emits a component lead byte (>= 0x01), so prefixes sort
//     first — exactly Ord.Compare's missing-components-are-minus-infinity.
//   - Labels: equal labels write equal codes. Steps with equal ordinals and
//     different labels — ordinal twins, which no tree holds at once (siblings
//     have distinct ordinals) — differ in their codes, and uvarints are
//     prefix-free, so the first differing byte lies inside both frames: the
//     twins compare unequal, consistently with bytes.Compare, in an order
//     nothing relies on.
//   - Steps: an ID whose steps are a strict prefix of another's produces a
//     strict key prefix, which bytes-compares first — ancestors precede
//     descendants in document order.
//
// Why prefix-check equals ancestorship: frames are self-delimiting (every
// lead byte announces its component's length, ordEnd ends the ordinal, a
// uvarint its own last byte, a literal's length its bytes), so a
// deterministic left-to-right parse of any valid key recovers its steps. If
// a.key is a prefix of b.key, parsing b.key consumes exactly a's frames
// first, hence a's steps are a step-prefix of b's, and prefixes always align
// on frame boundaries. The same determinism makes the encoding injective.
//
// A frame's first byte is a lead byte or ordEnd, never 0xFF, which is why
// algebra.Row.Key can end each ID with 0xFF and stay unambiguous.
const (
	ordEnd  = 0x00 // terminates a step's ordinal vector
	gapBits = 20   // Gap == 1<<gapBits: an ordinal value's split point
)

// appendComponent appends the order-preserving encoding of one ordinal
// component: lead byte 0x01+n, then the n big-endian significant bytes.
func appendComponent(dst []byte, v uint64) []byte {
	n := (bits.Len64(v) + 7) / 8
	dst = append(dst, byte(0x01+n))
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
}

// appendFrame appends one step's frame: c is label's code, and label is
// read only when c is litCode.
func appendFrame(dst []byte, c uint16, label string, ord Ord) []byte {
	for _, v := range ord {
		dst = appendComponent(dst, v>>gapBits)
		dst = appendComponent(dst, v&(Gap-1))
	}
	dst = append(dst, ordEnd)
	dst = binary.AppendUvarint(dst, uint64(c))
	if c == litCode {
		dst = binary.AppendUvarint(dst, uint64(len(label)))
		dst = append(dst, label...)
	}
	return dst
}

// uvarintAt decodes the uvarint starting at k[i] and returns it and the
// index past it.
func uvarintAt(k string, i int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		b := k[i]
		i++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			return v, i
		}
	}
}

// componentAt decodes the ordinal component starting at k[i] and returns it
// and the index past it.
func componentAt(k string, i int) (uint64, int) {
	end := i + int(k[i]) // the lead byte 0x01+n is also the encoded length
	var v uint64
	for i++; i < end; i++ {
		v = v<<8 | uint64(k[i])
	}
	return v, end
}

// Cursor reads an ID's steps back out of its key, root first, in one pass:
// each Next parses one frame, after which Key is the key of the ancestor (on
// the last frame, of the node) at that level and Label/Step decode the step.
// A loop over a node's ancestors costs O(len(Key())) in total, and allocates
// only if it decodes ordinals.
type Cursor struct {
	key             string
	start, lab, end int // the frame is key[start:end]; its label code starts at lab
}

// Cursor returns a cursor positioned before id's first step.
func (id ID) Cursor() Cursor { return Cursor{key: id.key} }

// Next advances to the next step and reports whether there was one.
func (c *Cursor) Next() bool {
	k, i := c.key, c.end
	if i == len(k) {
		return false
	}
	c.start = i
	for k[i] != ordEnd {
		i += int(k[i])
	}
	c.lab = i + 1
	code, i := uvarintAt(k, c.lab)
	if code == litCode {
		n, j := uvarintAt(k, i)
		i = j + int(n)
	}
	c.end = i
	return true
}

// Last reports whether the current step is the ID's own, the last one.
func (c *Cursor) Last() bool { return c.end == len(c.key) }

// Key returns the key of the ID made of the steps read so far.
func (c *Cursor) Key() string { return c.key[:c.end] }

// Label returns the current step's label: the label table's string, or for
// a label the table refused a substring of the key. "" before the first
// Next. It takes no lock and allocates nothing.
func (c *Cursor) Label() string {
	if c.end == 0 {
		return ""
	}
	code, i := uvarintAt(c.key, c.lab)
	if code != litCode {
		return LabelOf(uint16(code))
	}
	_, i = uvarintAt(c.key, i)
	return c.key[i:c.end]
}

// AppendOrd appends the current step's ordinal components to dst.
func (c *Cursor) AppendOrd(dst Ord) Ord {
	for i := c.start; c.key[i] != ordEnd; {
		var hi, lo uint64
		hi, i = componentAt(c.key, i)
		lo, i = componentAt(c.key, i)
		dst = append(dst, hi<<gapBits|lo)
	}
	return dst
}

// Step decodes the current step.
func (c *Cursor) Step() Step { return Step{Label: c.Label(), Ord: c.AppendOrd(nil)} }
