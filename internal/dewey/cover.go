package dewey

import (
	"slices"
	"sort"
	"strings"
)

// Cover is a set of subtree roots supporting "is this node inside any of
// the subtrees?" — the access path deletion propagation uses against the
// roots of a pending update list. A key's ancestors are its frame-aligned
// prefixes and key order is document order, so with the roots' keys sorted
// and reduced to the outermost ones, the only root that can cover a node is
// the last one not after it: membership is one binary search and one prefix
// check, with no document access and no walk up the node's ancestors.
type Cover struct {
	keys []string // ascending; none is a prefix of another
}

// NewCover builds a cover from subtree roots (nesting is harmless).
func NewCover(roots []ID) *Cover {
	keys := make([]string, 0, len(roots))
	for _, r := range roots {
		if !r.IsNull() {
			keys = append(keys, r.key)
		}
	}
	slices.Sort(keys)
	// A root inside another sorts after it and before anything outside it,
	// hence directly after the last root kept.
	kept := keys[:0]
	for _, k := range keys {
		if n := len(kept); n == 0 || !strings.HasPrefix(k, kept[n-1]) {
			kept = append(kept, k)
		}
	}
	return &Cover{keys: kept}
}

// Len returns the number of outermost roots.
func (c *Cover) Len() int { return len(c.keys) }

// Contains reports whether id equals or descends from one of the roots.
func (c *Cover) Contains(id ID) bool {
	i := sort.Search(len(c.keys), func(i int) bool { return c.keys[i] > id.key })
	return i > 0 && strings.HasPrefix(id.key, c.keys[i-1])
}
