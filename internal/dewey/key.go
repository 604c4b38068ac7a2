package dewey

import (
	"math/bits"
	"strings"
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
//	component*  ordEnd  escaped-label  0x00 frameEnd
//
// where each ordinal component is encoded as a lead byte 0x01+n followed by
// the n big-endian bytes of its value with leading zeros stripped (n is
// minimal, so the encoding is canonical and lead bytes order first by byte
// length, then bytes order by magnitude); ordEnd is a single 0x00 byte; and
// the label has every 0x00 byte escaped as 0x00 0xFF before the 0x00 0x01
// terminator.
//
// Why this is order-isomorphic to ID.Compare:
//
//   - Components: shorter-big-endian means smaller value, so the 0x01+n lead
//     byte decides first; equal leads fall through to the big-endian bytes.
//   - Ordinal prefixes: a strict prefix ordinal emits ordEnd (0x00) where its
//     extension emits a component lead byte (>= 0x01), so prefixes sort
//     first — exactly Ord.Compare's missing-components-are-minus-infinity.
//   - Labels: the 0x00 0x01 terminator sorts before both escaped zeros
//     (0x00 0xFF) and every plain label byte, so prefix labels sort first
//     and everything else compares bytewise, matching strings.Compare.
//   - Steps: an ID whose steps are a strict prefix of another's produces a
//     strict key prefix, which bytes-compares first — ancestors precede
//     descendants in document order.
//
// Why prefix-check equals ancestorship: frames are self-delimiting, so a
// deterministic left-to-right parse of any valid key recovers its steps.
// If a.key is a prefix of b.key, parsing b.key consumes exactly a's frames
// first, hence a's steps are a step-prefix of b's. Because no valid frame
// byte sequence can resume mid-frame, prefixes always align on frame
// boundaries. The same determinism makes the whole encoding injective.
const (
	ordEnd      = 0x00 // terminates a step's ordinal vector
	labelEscLit = 0xFF // 0x00 0xFF inside a label encodes a literal 0x00
	frameEnd    = 0x01 // 0x00 0x01 terminates a step's label (and frame)
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

// appendFrame appends one step's frame.
func appendFrame(dst []byte, label string, ord Ord) []byte {
	for _, c := range ord {
		dst = appendComponent(dst, c)
	}
	dst = append(dst, ordEnd)
	for i := 0; i < len(label); i++ {
		if b := label[i]; b == 0x00 {
			dst = append(dst, 0x00, labelEscLit)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, frameEnd)
}

// Cursor reads an ID's steps back out of its key, root first, in one pass:
// each Next parses one frame, after which Key is the key of the ancestor (on
// the last frame, of the node) at that level and Label/Step decode the step.
// A loop over a node's ancestors costs O(len(Key())) in total, and allocates
// only if it decodes ordinals.
type Cursor struct {
	key             string
	start, lab, end int // the frame is key[start:end]; its label starts at lab
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
	i++
	c.lab = i
	for {
		for k[i] != 0x00 {
			i++
		}
		i += 2
		if k[i-1] == frameEnd {
			break
		}
	}
	c.end = i
	return true
}

// Last reports whether the current step is the ID's own, the last one.
func (c *Cursor) Last() bool { return c.end == len(c.key) }

// Key returns the key of the ID made of the steps read so far.
func (c *Cursor) Key() string { return c.key[:c.end] }

// Label returns the current step's label: a substring of the key unless the
// label contains a 0x00 byte. "" before the first Next.
func (c *Cursor) Label() string {
	if c.end == 0 {
		return ""
	}
	raw := c.key[c.lab : c.end-2]
	if strings.IndexByte(raw, 0x00) >= 0 {
		raw = strings.ReplaceAll(raw, "\x00\xff", "\x00")
	}
	return raw
}

// AppendOrd appends the current step's ordinal components to dst.
func (c *Cursor) AppendOrd(dst Ord) Ord {
	for i := c.start; c.key[i] != ordEnd; {
		end := i + int(c.key[i]) // the lead byte 0x01+n is also the encoded length
		var v uint64
		for i++; i < end; i++ {
			v = v<<8 | uint64(c.key[i])
		}
		dst = append(dst, v)
	}
	return dst
}

// Step decodes the current step.
func (c *Cursor) Step() Step { return Step{Label: c.Label(), Ord: c.AppendOrd(nil)} }
