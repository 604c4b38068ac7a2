package pattern

import "math/bits"

// A node-set of a pattern is represented as a bitmask over preorder
// indexes; bit 0 is the root.

// FullMask returns the mask containing every node of p.
func (p *Pattern) FullMask() uint64 {
	if len(p.Nodes) == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(len(p.Nodes))) - 1
}

// IsSnowcap reports whether mask is a snowcap of p per Definition 3.11: a
// non-empty subtree of p such that whenever a node is in the set, its parent
// is too. (Equivalently: non-empty and upward-closed, hence containing the
// root.)
func (p *Pattern) IsSnowcap(mask uint64) bool {
	if mask == 0 || mask&^p.FullMask() != 0 {
		return false
	}
	for i := 1; i < len(p.Nodes); i++ {
		if mask&(1<<uint(i)) != 0 {
			pi := p.ParentIndex(i)
			if mask&(1<<uint(pi)) == 0 {
				return false
			}
		}
	}
	return true
}

// IsUpClosed reports whether mask (possibly empty) is upward-closed in p.
// The empty set and every snowcap are upward-closed; upward-closed sets are
// exactly the R-node sets of insertion terms surviving Proposition 3.3.
func (p *Pattern) IsUpClosed(mask uint64) bool {
	return mask == 0 || p.IsSnowcap(mask)
}

// SnowcapChain returns one snowcap per size level 1..Size(p), each
// containing the previous — the "pick one per level" policy used in the
// paper's experiments (Section 6.7). The chain is built greedily by always
// extending with the lowest-index attachable node.
func (p *Pattern) SnowcapChain() []uint64 {
	mask := uint64(1)
	chain := []uint64{mask}
	for bits.OnesCount64(mask) < len(p.Nodes) {
		for i := 1; i < len(p.Nodes); i++ {
			bit := uint64(1) << uint(i)
			if mask&bit != 0 {
				continue
			}
			if mask&(1<<uint(p.ParentIndex(i))) != 0 {
				mask |= bit
				break
			}
		}
		chain = append(chain, mask)
	}
	return chain
}

// MaskContains reports whether mask contains node index i.
func MaskContains(mask uint64, i int) bool { return mask&(1<<uint(i)) != 0 }

// MaskIndexes returns the node indexes present in mask, ascending.
func MaskIndexes(mask uint64) []int {
	var out []int
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		out = append(out, i)
		mask &^= 1 << uint(i)
	}
	return out
}
