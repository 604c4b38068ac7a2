// Package dewey implements Compact Dynamic Dewey identifiers in the style of
// Xu et al. (SIGMOD 2009): structural node IDs that encode the full label
// path from the root, support parent/ancestor comparisons, never require
// relabeling existing nodes when the document is updated, and admit a
// compact binary encoding.
//
// An ID is a sequence of steps; each step carries the label of one ancestor
// (the last step carries the node's own label) and a dynamic ordinal that
// orders the node among its siblings. Ordinals are small integer vectors
// compared lexicographically, so a fresh ordinal can always be generated
// strictly between two existing ones without touching either — the property
// that makes the scheme dynamic.
//
// An ID holds nothing but its key (key.go): one frame per step, an ordinal
// and a label code, whose bytes order is document order and whose prefixes
// are its ancestors. A code indexes the process-wide label table
// (labels.go), so a step costs a few bytes however long its label, and a
// label is read back with one atomic load and an index.
package dewey

// Gap is the spacing between ordinals assigned to consecutive siblings when
// a subtree is first loaded. A large gap leaves room for many future
// insertions before ordinal vectors need to grow a second component.
const Gap = 1 << gapBits

// Ord is a dynamic sibling ordinal: a non-empty vector of components
// compared lexicographically, with a strict prefix ordering before any
// extension of it ([2] < [2,1]). The zero value (nil) is not a valid
// ordinal; use Between or OrdAt to create one.
type Ord []uint64

// OrdAt returns the ordinal for the i-th (0-based) sibling of a freshly
// loaded sequence: (i+1)*Gap as a single component.
func OrdAt(i int) Ord {
	return Ord{uint64(i+1) * Gap}
}

// Compare returns -1, 0, or +1 as o sorts before, equal to, or after p.
// Missing components compare as if they were -infinity, which makes a
// strict prefix sort before any of its extensions.
func (o Ord) Compare(p Ord) int {
	n := len(o)
	if len(p) < n {
		n = len(p)
	}
	for i := 0; i < n; i++ {
		switch {
		case o[i] < p[i]:
			return -1
		case o[i] > p[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(p):
		return -1
	case len(o) > len(p):
		return 1
	}
	return 0
}

// Equal reports whether o and p are the same ordinal.
func (o Ord) Equal(p Ord) bool { return o.Compare(p) == 0 }

// Clone returns an independent copy of o.
func (o Ord) Clone() Ord {
	if o == nil {
		return nil
	}
	c := make(Ord, len(o))
	copy(c, o)
	return c
}

// comp returns the i-th component of o, padding with zeros past the end.
func (o Ord) comp(i int) uint64 {
	if i < len(o) {
		return o[i]
	}
	return 0
}

// Between returns a fresh ordinal strictly between a and b. A nil a means
// "before the first sibling"; a nil b means "after the last sibling"; both
// nil means "first child ever". Between panics if a and b are both non-nil
// and a does not sort strictly before b, since no ordinal can separate them.
//
// The result never requires relabeling a or b: it is constructed either as a
// midpoint in an existing gap or by extending a with one extra component.
func Between(a, b Ord) Ord {
	switch {
	case a == nil && b == nil:
		return Ord{Gap}
	case a == nil:
		return beforeFirst(b)
	case b == nil:
		return afterLast(a)
	}
	if a.Compare(b) >= 0 {
		panic("dewey: Between called with a >= b")
	}
	var out Ord
	for i := 0; ; i++ {
		av := a.comp(i)
		var bv uint64
		bounded := i < len(b)
		if bounded {
			bv = b[i]
		}
		if !bounded {
			// b exhausted: since a < b this cannot happen before a
			// diverges, but guard anyway by extending below a's tail.
			out = append(out, a[i:]...)
			return append(out, Gap)
		}
		if bv > av+1 {
			// Room for a midpoint at this component.
			return append(out, av+(bv-av)/2)
		}
		if bv == av+1 {
			// Adjacent: pin this component to av; the result is now
			// strictly below b, so only a constrains the tail.
			out = append(out, av)
			out = append(out, a[i+1:]...)
			return append(out, Gap)
		}
		// Components equal; keep walking.
		out = append(out, av)
	}
}

// beforeFirst returns an ordinal strictly below b.
func beforeFirst(b Ord) Ord {
	var out Ord
	for i := 0; i < len(b); i++ {
		if b[i] >= 2 {
			return append(out, b[i]/2)
		}
		if b[i] == 1 {
			return append(out, 0, Gap)
		}
		out = append(out, 0)
	}
	// b is all zeros — not producible by this package, but extend anyway.
	panic("dewey: cannot create ordinal before all-zero ordinal")
}

// afterLast returns an ordinal strictly above a.
func afterLast(a Ord) Ord {
	if a[0] <= ^uint64(0)-Gap {
		return Ord{a[0] + Gap}
	}
	out := a.Clone()
	return append(out, Gap)
}
