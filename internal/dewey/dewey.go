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
	end   int // offset in the cached key just past this step's frame
}

// ID is a Compact Dynamic Dewey identifier: the sequence of steps from the
// document root down to the node. The zero value is the "null" ID, which
// identifies no node; it compares before every real ID.
//
// Every ID carries a cached order-preserving binary key (see key.go)
// computed once at construction, so Compare/Equal/IsAncestorOf/Key are
// single string operations with zero allocation.
type ID struct {
	steps []Step
	key   string
}

// NewRoot returns the ID of a document root labeled label.
func NewRoot(label string) ID {
	return newID([]Step{{Label: label, Ord: Ord{Gap}}})
}

// Child returns the ID of a child of id with the given label and ordinal.
// The child's key extends the parent's cached key by one frame; the frame is
// staged in a stack buffer and the key assembled in an exact-size Builder, so
// the whole construction costs one step-slice and one string allocation.
func (id ID) Child(label string, ord Ord) ID {
	steps := make([]Step, len(id.steps)+1)
	copy(steps, id.steps)
	var tmp [64]byte
	frame := appendFrame(tmp[:0], label, ord)
	var sb strings.Builder
	sb.Grow(len(id.key) + len(frame))
	sb.WriteString(id.key)
	sb.Write(frame)
	key := sb.String()
	steps[len(id.steps)] = Step{Label: label, Ord: ord, end: len(key)}
	return ID{steps: steps, key: key}
}

// IsNull reports whether id is the zero (null) ID.
func (id ID) IsNull() bool { return len(id.steps) == 0 }

// Level returns the depth of the node: 1 for the root, 0 for the null ID.
func (id ID) Level() int { return len(id.steps) }

// Label returns the node's own label (the label of the last step), or ""
// for the null ID.
func (id ID) Label() string {
	if id.IsNull() {
		return ""
	}
	return id.steps[len(id.steps)-1].Label
}

// Step returns the i-th step (0-based from the root).
func (id ID) Step(i int) Step { return id.steps[i] }

// Parent returns the ID of the node's parent (the Path Navigate primitive of
// the paper). The parent of the root — and of the null ID — is the null ID.
// Both the step slice and the cached key are shared sub-slices: no
// allocation.
func (id ID) Parent() ID {
	if len(id.steps) <= 1 {
		return ID{}
	}
	n := len(id.steps) - 1
	return ID{steps: id.steps[:n], key: id.key[:id.steps[n-1].end]}
}

// AncestorAt returns the ancestor ID at the given level (1 = root), sharing
// the receiver's backing storage (no allocation). It panics if level is out
// of range.
func (id ID) AncestorAt(level int) ID {
	if level < 1 || level > len(id.steps) {
		panic("dewey: AncestorAt level out of range")
	}
	return ID{steps: id.steps[:level], key: id.key[:id.steps[level-1].end]}
}

// Ancestors returns the IDs of all proper ancestors, from the root down to
// the parent. The paper exploits exactly this: from the ID of a node one may
// extract the IDs and labels of all its ancestors.
func (id ID) Ancestors() []ID {
	if len(id.steps) <= 1 {
		return nil
	}
	out := make([]ID, 0, len(id.steps)-1)
	for i := 1; i < len(id.steps); i++ {
		out = append(out, id.AncestorAt(i))
	}
	return out
}

// LabelPath returns the labels along the root-to-node path.
func (id ID) LabelPath() []string {
	out := make([]string, len(id.steps))
	for i, s := range id.steps {
		out[i] = s.Label
	}
	return out
}

// Compare orders IDs in document order (preorder): an ancestor sorts before
// its descendants, and siblings sort by ordinal. It returns -1, 0 or +1.
// The cached keys are order-isomorphic to the step-wise comparison (ordinal
// first, then — defensively — label, per level), so this is one string
// comparison.
func (id ID) Compare(other ID) int {
	return strings.Compare(id.key, other.key)
}

// Equal reports whether two IDs identify the same node.
func (id ID) Equal(other ID) bool { return id.key == other.key }

// IsAncestorOf reports whether id ≺≺ other: id identifies a proper ancestor
// of the node identified by other. Thanks to the frame-aligned key encoding
// this is a single prefix check.
func (id ID) IsAncestorOf(other ID) bool {
	return len(id.steps) > 0 && len(id.key) < len(other.key) &&
		other.key[:len(id.key)] == id.key
}

// IsParentOf reports whether id ≺ other: id identifies the parent of the
// node identified by other.
func (id ID) IsParentOf(other ID) bool {
	return len(id.steps)+1 == len(other.steps) && id.IsAncestorOf(other)
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
	for i := 0; i < len(id.steps)-1; i++ {
		if id.steps[i].Label == label {
			return true
		}
	}
	return false
}

// SelfOrAncestorLabeled reports whether the node itself or any ancestor
// carries the given label.
func (id ID) SelfOrAncestorLabeled(label string) bool {
	for _, s := range id.steps {
		if s.Label == label {
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
	for i, s := range id.steps {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = append(dst, s.Label...)
		for j, c := range s.Ord {
			if j > 0 {
				dst = append(dst, '_')
			}
			dst = strconv.AppendUint(dst, c/Gap, 10)
			if r := c % Gap; r != 0 {
				dst = append(dst, '+')
				dst = strconv.AppendUint(dst, r, 10)
			}
		}
	}
	return dst
}

// Key returns the cached binary key: a compact string usable as a map key,
// unique per node (the frame encoding is injective), whose byte order equals
// document order. Zero allocation — the string is computed at construction.
func (id ID) Key() string { return id.key }

// KeyAt returns Key() of the ancestor at the given level (1 = root) without
// constructing the ancestor ID: frames align, so it is a shared key prefix.
// Hash probes over ancestor keys (structural joins, covers, affected sets)
// use this to stay allocation-free. It panics if level is out of range.
func (id ID) KeyAt(level int) string {
	if level < 1 || level > len(id.steps) {
		panic("dewey: KeyAt level out of range")
	}
	return id.key[:id.steps[level-1].end]
}
