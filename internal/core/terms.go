package core

import (
	"math/bits"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// A union term is identified by its R-mask: the set of pattern nodes that
// read the stored relation R; the complement reads the ∆ table. The
// original view is the term with a full R-mask and is never re-evaluated.

// InsertTerms develops the 2^k−1 insertion union terms and applies the
// update-independent pruning of Proposition 3.3: a term survives iff it has
// no sub-expression ∆+_{n1} R_{n2} with n2 a child of n1 in the view —
// equivalently (Proposition 3.12), iff its R-set is upward-closed (a
// snowcap, or empty). Terms are returned in increasing ∆-size order.
//
// Deletion keeps the same terms. Proposition 4.2 prunes ∆−_{n1} R_{n2}
// with n2 below n1 (it is empty), which leaves the upward-closed proper
// R-masks again. Evaluated against the post-update relations, those terms
// partition the removed tuples, so every term's result is subtracted with
// its exact derivation count — this subsumes the set-oriented parity
// argument of Proposition 4.3 while keeping counts exact (see DESIGN.md).
func InsertTerms(p *pattern.Pattern) []uint64 {
	full := p.FullMask()
	var out []uint64
	for rmask := uint64(0); rmask < full; rmask++ {
		if p.IsUpClosed(rmask) {
			out = append(out, rmask)
		}
	}
	// Sort by descending popcount of the R-mask (small ∆ first).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && bits.OnesCount64(out[j-1]) < bits.OnesCount64(out[j]); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// The prunes append the terms they keep to dst, which may be terms[:0]:
// the engine filters its scratch copy of a view's terms in place.

// pruneByDelta implements Proposition 3.6 (and its deletion counterpart):
// if σ_n(∆_n) is empty for a view node n, every term whose ∆-set contains
// n is pruned. deltaIn holds the σ-filtered per-node delta inputs.
func pruneByDelta(dst []uint64, p *pattern.Pattern, terms []uint64, deltaIn algebra.Inputs) []uint64 {
	full := p.FullMask()
	var emptyDelta uint64
	for i := 0; i < p.Size(); i++ {
		if len(deltaIn[i]) == 0 {
			emptyDelta |= 1 << uint(i)
		}
	}
	for _, rmask := range terms {
		dmask := full &^ rmask
		if dmask&emptyDelta == 0 {
			dst = append(dst, rmask)
		}
	}
	return dst
}

// pruneByInsertionPoints implements Proposition 3.8: for view nodes n1
// ancestor of n2, if no insertion point is labeled n1 nor has an ancestor
// labeled n1, then every term containing R_{n1} ∆+_{n2} is empty. The
// check reads only the Compact Dynamic Dewey IDs of the insertion points.
func pruneByInsertionPoints(dst []uint64, p *pattern.Pattern, terms []uint64, points []*xmltree.Node) []uint64 {
	// unreachable holds the view nodes no insertion point has a
	// self-or-ancestor labeled like (wildcards are always reachable).
	var unreachable uint64
	for i, n := range p.Nodes {
		if n.Label == "*" {
			continue
		}
		found := false
		for _, pt := range points {
			if pt.ID().SelfOrAncestorLabeled(n.Label) {
				found = true
				break
			}
		}
		if !found {
			unreachable |= 1 << uint(i)
		}
	}
	return pruneByUnreachableAncestors(dst, p, terms, unreachable)
}

// pruneByDeletedIDs implements Proposition 4.7: for view nodes n1 ancestor
// of n2, if every node in ∆−_{n2} has no ancestor labeled n1, all terms
// containing R_{n1} ∆−_{n2} are empty.
func pruneByDeletedIDs(dst []uint64, p *pattern.Pattern, terms []uint64, deltaIn algebra.Inputs) []uint64 {
	full := p.FullMask()
	for _, rmask := range terms {
		dmask := full &^ rmask
		if deleteTermViable(p, rmask, dmask, deltaIn) {
			dst = append(dst, rmask)
		}
	}
	return dst
}

func deleteTermViable(p *pattern.Pattern, rmask, dmask uint64, deltaIn algebra.Inputs) bool {
	for m := dmask; m != 0; m &= m - 1 {
		n2 := bits.TrailingZeros64(m)
		for n1 := 0; n1 < p.Size(); n1++ {
			if !pattern.MaskContains(rmask, n1) || !p.IsAncestor(n1, n2) {
				continue
			}
			label := p.Nodes[n1].Label
			if label == "*" {
				continue
			}
			any := false
			for _, it := range deltaIn[n2] {
				if it.ID.HasAncestorLabeled(label) {
					any = true
					break
				}
			}
			if !any {
				return false
			}
		}
	}
	return true
}

// pruneByUnreachableAncestors drops terms containing R_{n1} ∆_{n2} where n1
// is an unreachable ancestor of n2 in the view.
func pruneByUnreachableAncestors(dst []uint64, p *pattern.Pattern, terms []uint64, unreachable uint64) []uint64 {
	full := p.FullMask()
	for _, rmask := range terms {
		dmask := full &^ rmask
		dead := false
	scan:
		for m := dmask; m != 0; m &= m - 1 {
			n2 := bits.TrailingZeros64(m)
			for n1 := 0; n1 < p.Size(); n1++ {
				if pattern.MaskContains(rmask&unreachable, n1) && p.IsAncestor(n1, n2) {
					dead = true
					break scan
				}
			}
		}
		if !dead {
			dst = append(dst, rmask)
		}
	}
	return dst
}
