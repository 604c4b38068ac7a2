package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// TestReducedReadEqualsWholeRead is the reduced read's property: over
// random documents, random patterns of / and // edges with value
// predicates, hidden subtrees and predicate flips undone, every term's ∆
// nodes — and every single node, as a flip seeds it — bound to random
// items and joined with the relations Relations.Around reads, give the
// relation they give joined with the whole σ-filtered relations, hidden
// subtrees cut and flips undone.
func TestReducedReadEqualsWholeRead(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	probes := obs.New()
	checked := 0
	for trial := range 300 {
		doc := mustDoc(t, randomXML(rng, 4, 4))
		p := randomPattern(rng)
		e := New(doc, WithMetrics(probes))
		hidden := hideSome(rng, e)
		undo := randomFlips(rng, e, p)
		var seedings []uint64
		for _, rmask := range InsertTerms(p) {
			seedings = append(seedings, p.FullMask()&^rmask)
		}
		for i := range p.Size() {
			seedings = append(seedings, 1<<uint(i))
		}
		for _, seeds := range seedings {
			seedIn := make(algebra.Inputs, p.Size())
			for m := seeds; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				seedIn[i] = someItems(rng, doc, p, i)
			}
			whole := slices.Clone(seedIn)
			for j := range p.Size() {
				if !pattern.MaskContains(seeds, j) {
					whole[j] = e.Store.Input(p, j)
					for _, f := range undo {
						if f.node == j {
							whole[j] = f.asBefore(whole[j])
						}
					}
				}
			}
			reduced := slices.Clone(seedIn)
			r := &Relations{p: p, st: e.Store, sc: new(scratch), undo: undo}
			r.Around(seeds, reduced)
			want := algebra.EvalPattern(p, whole, nil)
			got := algebra.EvalPattern(p, reduced, nil)
			if !algebra.SameRelation(got, want) {
				t.Fatalf("trial %d, pattern %s, seeds %b, hidden %v, %d flips undone: the reduced read joins to %d tuples, the whole one to %d",
					trial, p, seeds, hidden, len(undo), got.Len(), want.Len())
			}
			if want.Len() > 0 {
				checked++
			}
		}
	}
	// The property is not vacuous: many seedings join to something, and
	// the reduced reads went through the probe counter.
	if checked < 200 || probes.CounterValue("store.probe.items") == 0 {
		t.Fatalf("%d seedings joined to a tuple, %d items probed", checked, probes.CounterValue("store.probe.items"))
	}
}

// randomPattern builds a pattern of two to five nodes over randomXML's
// labels, rooted at root by / a third of the time, with random edges, a
// value predicate on a node in four and a wildcard in ten.
func randomPattern(rng *rand.Rand) *pattern.Pattern {
	labels := []string{"a", "b", "c", "d", "e"}
	var nodes []*pattern.Node
	root := &pattern.Node{Label: labels[rng.Intn(len(labels))], Desc: true, Store: pattern.StoreID}
	if rng.Intn(3) == 0 {
		root.Label, root.Desc = "root", false
	}
	nodes = append(nodes, root)
	for range 1 + rng.Intn(4) {
		n := &pattern.Node{Label: labels[rng.Intn(len(labels))], Desc: rng.Intn(2) == 0, Store: pattern.StoreID}
		if rng.Intn(10) == 0 {
			n.Label = "*"
		}
		parent := nodes[rng.Intn(len(nodes))]
		parent.Children = append(parent.Children, n)
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if rng.Intn(4) == 0 {
			n.HasPred, n.PredVal = true, []string{"5", "7"}[rng.Intn(2)]
		}
	}
	return pattern.MustNew(root)
}

// hideSome hides up to two disjoint random subtrees from e's store, as an
// insertion hides the forest it propagates, and returns their roots' IDs.
func hideSome(rng *rand.Rand, e *Engine) []string {
	var all []*xmltree.Node
	xmltree.Walk(e.Doc.Root, func(n *xmltree.Node) bool {
		if n != e.Doc.Root && n.Kind == xmltree.Element {
			all = append(all, n)
		}
		return true
	})
	var roots []*xmltree.Node
	var ids []string
	for range rng.Intn(3) {
		n := all[rng.Intn(len(all))]
		if slices.ContainsFunc(roots, func(r *xmltree.Node) bool {
			return strings.HasPrefix(n.ID().Key(), r.ID().Key()) || strings.HasPrefix(r.ID().Key(), n.ID().Key())
		}) {
			continue
		}
		roots = append(roots, n)
		ids = append(ids, n.ID().String())
	}
	e.Store.Hide(roots)
	return ids
}

// randomFlips returns, for some of p's predicated nodes, a flip as
// findFlips leaves one: nodes that satisfy σ now and flipped in, nodes
// that do not and flipped out, each in document order.
func randomFlips(rng *rand.Rand, e *Engine, p *pattern.Pattern) []flip {
	var flips []flip
	for i, pn := range p.Nodes {
		if !pn.HasPred || pn.Label == "*" || rng.Intn(2) == 0 {
			continue
		}
		f := flip{node: i}
		for _, it := range algebra.DocItems(e.Doc, pn.Label) {
			if rng.Intn(3) > 0 {
				continue
			}
			if it.Node.StringValue() == pn.PredVal {
				f.in = append(f.in, it)
			} else {
				f.out = append(f.out, it)
			}
		}
		if i == 0 {
			f.in, f.out = algebra.FilterRootAnchor(p, f.in), algebra.FilterRootAnchor(p, f.out)
		}
		flips = append(flips, f)
	}
	return flips
}

// someItems binds pattern node i to a random half of the document's nodes
// it can bind, hidden or not, σ-filtered.
func someItems(rng *rand.Rand, doc *xmltree.Document, p *pattern.Pattern, i int) []algebra.Item {
	var out []algebra.Item
	for _, it := range algebra.DocItems(doc, p.Nodes[i].Label) {
		if rng.Intn(2) == 0 {
			out = append(out, it)
		}
	}
	out = algebra.Filter(out, p.Nodes[i], doc)
	if i == 0 {
		out = algebra.FilterRootAnchor(p, out)
	}
	return out
}
