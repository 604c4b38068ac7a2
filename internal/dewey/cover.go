package dewey

// Cover is a set of subtree roots supporting "is this node inside any of
// the subtrees?" in O(depth) — the access path deletion propagation uses
// against the roots of a pending update list. Because a Dewey ID carries
// all its ancestors, membership reduces to hash probes on the prefixes of
// the ID's own key; no document access and no scan over the roots.
type Cover struct {
	keys map[string]bool
}

// NewCover builds a cover from subtree roots (nesting is harmless).
func NewCover(roots []ID) *Cover {
	c := &Cover{keys: make(map[string]bool, len(roots))}
	for _, r := range roots {
		c.keys[r.Key()] = true
	}
	return c
}

// Len returns the number of distinct roots.
func (c *Cover) Len() int { return len(c.keys) }

// Contains reports whether id equals or descends from one of the roots.
func (c *Cover) Contains(id ID) bool {
	if len(c.keys) == 0 {
		return false
	}
	for cur := id.Cursor(); cur.Next(); {
		if c.keys[cur.Key()] {
			return true
		}
	}
	return false
}
