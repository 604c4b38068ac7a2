package dewey

import (
	"strconv"
	"strings"
)

// Step is one component of a structural ID: the label of an ancestor (or of
// the node itself, for the last step) and its dynamic ordinal among its
// siblings.
type Step struct {
	Label string
	Ord   Ord
}

// ID is a Compact Dynamic Dewey identifier: the sequence of steps from the
// document root down to the node. The zero value is the "null" ID, which
// identifies no node; it compares before every real ID.
//
// An ID is its order-preserving binary key (see key.go) and nothing else:
// one self-delimiting frame per step, so Compare/Equal/IsAncestorOf/Key are
// single string operations with zero allocation, and the steps — levels,
// labels, ordinals, every ancestor's ID — are read back by walking the
// frames (Cursor).
type ID struct {
	key string
}

// NewRoot returns the ID of a document root labeled label.
func NewRoot(label string) ID {
	return ID{}.Child(label, Ord{Gap})
}

// Child returns the ID of a child of id with the given label and ordinal.
// The child's key extends the parent's by one frame; the frame is staged in
// a stack buffer and the key assembled in an exact-size Builder, so the
// whole construction costs one string allocation.
func (id ID) Child(label string, ord Ord) ID {
	return id.ChildCode(Code(label), label, ord)
}

// ChildCode is Child for a label whose code the caller already holds (Code):
// it does not consult the table. label is read only when c is 0, the code of
// a label the table refused, which the frame spells out.
func (id ID) ChildCode(c uint16, label string, ord Ord) ID {
	var tmp [64]byte
	frame := appendFrame(tmp[:0], c, label, ord)
	var sb strings.Builder
	sb.Grow(len(id.key) + len(frame))
	sb.WriteString(id.key)
	sb.Write(frame)
	return ID{key: sb.String()}
}

// IsNull reports whether id is the zero (null) ID.
func (id ID) IsNull() bool { return id.key == "" }

// Level returns the depth of the node: 1 for the root, 0 for the null ID.
// It counts frames, O(len(Key())): loop over levels with a Cursor instead.
func (id ID) Level() int {
	n := 0
	for c := id.Cursor(); c.Next(); {
		n++
	}
	return n
}

// last returns a cursor on id's own step, the last one.
func (id ID) last() Cursor {
	c := id.Cursor()
	for c.Next() && !c.Last() {
	}
	return c
}

// Label returns the node's own label (the label of the last step), or ""
// for the null ID.
func (id ID) Label() string {
	c := id.last()
	return c.Label()
}

// at returns a cursor on the step at the given level (1 = root). It panics
// if level is out of range.
func (id ID) at(level int) Cursor {
	c := id.Cursor()
	for ; level > 0 && c.Next(); level-- {
	}
	if level != 0 || c.end == 0 {
		panic("dewey: level out of range")
	}
	return c
}

// Step returns the i-th step (0-based from the root). It panics if i is out
// of range.
func (id ID) Step(i int) Step {
	c := id.at(i + 1)
	return c.Step()
}

// Parent returns the ID of the node's parent (the Path Navigate primitive of
// the paper). The parent of the root — and of the null ID — is the null ID.
// The parent's key is a prefix of the receiver's: no allocation.
func (id ID) Parent() ID { return ID{key: id.key[:id.last().start]} }

// LabelPath returns the labels along the root-to-node path.
func (id ID) LabelPath() []string {
	out := make([]string, 0, id.Level())
	for c := id.Cursor(); c.Next(); {
		out = append(out, c.Label())
	}
	return out
}

// Compare orders IDs in document order (preorder): an ancestor sorts before
// its descendants, and siblings sort by ordinal. It returns -1, 0 or +1.
// The keys are order-isomorphic to the step-wise comparison (ordinal first,
// then label code, per level), so this is one string comparison. Steps with
// equal ordinals and different labels — ordinal twins, never siblings in one
// tree — compare unequal in an unspecified order.
func (id ID) Compare(other ID) int {
	return strings.Compare(id.key, other.key)
}

// Equal reports whether two IDs identify the same node.
func (id ID) Equal(other ID) bool { return id.key == other.key }

// IsAncestorOf reports whether id ≺≺ other: id identifies a proper ancestor
// of the node identified by other. Thanks to the frame-aligned key encoding
// this is a single prefix check.
func (id ID) IsAncestorOf(other ID) bool {
	return id.key != "" && len(id.key) < len(other.key) &&
		other.key[:len(id.key)] == id.key
}

// IsParentOf reports whether id ≺ other: id identifies the parent of the
// node identified by other — other's key is id's plus exactly one frame.
func (id ID) IsParentOf(other ID) bool {
	if !id.IsAncestorOf(other) {
		return false
	}
	c := Cursor{key: other.key, end: len(id.key)}
	return c.Next() && c.Last()
}

// IsAncestorOrSelf reports id == other or id ≺≺ other.
func (id ID) IsAncestorOrSelf(other ID) bool {
	return id.Equal(other) || id.IsAncestorOf(other)
}

// HasAncestorLabeled reports whether any proper ancestor of the node carries
// the given label — the label-path reasoning used by the paper's
// inserted-ID-driven pruning (Proposition 3.8) and its deletion counterpart
// (Proposition 4.7).
func (id ID) HasAncestorLabeled(label string) bool {
	return id.Parent().SelfOrAncestorLabeled(label)
}

// SelfOrAncestorLabeled reports whether the node itself or any ancestor
// carries the given label.
func (id ID) SelfOrAncestorLabeled(label string) bool {
	for c := id.Cursor(); c.Next(); {
		if c.Label() == label {
			return true
		}
	}
	return false
}

// String renders the ID in the paper's subscript style, e.g. "a1.c1.b2",
// except ordinals are printed as their component vectors when they have
// grown past a single component.
func (id ID) String() string {
	var tmp [64]byte
	return string(id.AppendString(tmp[:0]))
}

// AppendString appends String()'s rendering to dst and returns the extended
// slice: encoders that write many IDs into one buffer pay no per-ID string.
func (id ID) AppendString(dst []byte) []byte {
	if id.IsNull() {
		return append(dst, "ε"...)
	}
	for c := id.Cursor(); c.Next(); {
		if c.start > 0 {
			dst = append(dst, '.')
		}
		dst = append(dst, c.Label()...)
		var buf [4]uint64
		for j, v := range c.AppendOrd(buf[:0]) {
			if j > 0 {
				dst = append(dst, '_')
			}
			dst = strconv.AppendUint(dst, v/Gap, 10)
			if r := v % Gap; r != 0 {
				dst = append(dst, '+')
				dst = strconv.AppendUint(dst, r, 10)
			}
		}
	}
	return dst
}

// Key returns the binary key: a compact string usable as a map key, unique
// per node (the frame encoding is injective), whose byte order equals
// document order. Zero allocation — the key is the ID.
func (id ID) Key() string { return id.key }
