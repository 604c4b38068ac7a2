package pulopt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// TestReducePropertyEquivalence: for random operation sequences over random
// documents, applying the reduced sequence produces the same final document
// and the same maintained view as applying the original sequence.
func TestReducePropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 60; trial++ {
		src := randomTree(rng)

		build := func() (*core.Engine, *core.ManagedView, []*xmltree.Node) {
			d, err := xmltree.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			e := core.NewEngine(d, core.Options{})
			mv, err := e.AddView("v", pattern.MustParse(`//a{ID}//b{ID}`))
			if err != nil {
				t.Fatal(err)
			}
			var nodes []*xmltree.Node
			xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
				if n.Kind == xmltree.Element && n != d.Root {
					nodes = append(nodes, n)
				}
				return true
			})
			return e, mv, nodes
		}

		mkOps := func(nodes []*xmltree.Node) Seq {
			var ops Seq
			for i := 0; i < 2+rng.Intn(8); i++ {
				n := nodes[rng.Intn(len(nodes))]
				if rng.Intn(3) == 0 {
					ops = append(ops, Op{Kind: Del, Target: n.ID})
				} else {
					f, _ := xmltree.ParseForest(fmt.Sprintf("<%s/>", []string{"a", "b", "c"}[rng.Intn(3)]))
					ops = append(ops, Op{Kind: InsLast, Target: n.ID, Forest: f})
				}
			}
			return ops
		}

		e1, v1, nodes1 := build()
		ops := mkOps(nodes1)
		if _, err := Apply(e1, ops); err != nil {
			t.Fatal(err)
		}

		e2, v2, nodes2 := build()
		// Rebuild identical ops against e2's (identical) IDs.
		ops2 := make(Seq, len(ops))
		for i, op := range ops {
			// IDs are deterministic across both engines, so targets align.
			_ = nodes2
			ops2[i] = op
		}
		reduced := Reduce(ops2)
		if len(reduced) > len(ops2) {
			t.Fatal("reduction grew the sequence")
		}
		if _, err := Apply(e2, reduced); err != nil {
			t.Fatal(err)
		}

		if e1.Doc.String() != e2.Doc.String() {
			t.Fatalf("trial %d: documents differ\nraw:     %s\nreduced: %s\nops: %v\nreduced ops: %v",
				trial, e1.Doc, e2.Doc, ops, reduced)
		}
		r1, r2 := v1.View.Rows(), v2.View.Rows()
		if len(r1) != len(r2) {
			t.Fatalf("trial %d: views differ (%d vs %d rows)", trial, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Key() != r2[i].Key() || r1[i].Count != r2[i].Count {
				t.Fatalf("trial %d: view row %d differs", trial, i)
			}
		}
		if !e2.CheckView(v2) {
			t.Fatalf("trial %d: reduced-sequence view inconsistent with recomputation", trial)
		}
	}
}

// TestAggregatePropertyEquivalence: for random ∆1/∆2 pairs over random
// documents — with ∆2 generated against the post-∆1 document so its targets
// can reference nodes ∆1 inserted — applying Aggregate(∆1,∆2) produces the
// same final document and views as applying ∆1 then ∆2.
func TestAggregatePropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 80; trial++ {
		src := randomTree(rng)

		build := func() (*core.Engine, *core.ManagedView) {
			d, err := xmltree.ParseString(src)
			if err != nil {
				t.Fatal(err)
			}
			e := core.NewEngine(d, core.Options{})
			mv, err := e.AddView("v", pattern.MustParse(`//a{ID}//b{ID}`))
			if err != nil {
				t.Fatal(err)
			}
			return e, mv
		}
		elements := func(e *core.Engine) []*xmltree.Node {
			var nodes []*xmltree.Node
			xmltree.Walk(e.Doc.Root, func(n *xmltree.Node) bool {
				if n.Kind == xmltree.Element && n != e.Doc.Root {
					nodes = append(nodes, n)
				}
				return true
			})
			return nodes
		}
		mkOps := func(nodes []*xmltree.Node) Seq {
			var ops Seq
			for i := 0; i < 1+rng.Intn(5); i++ {
				n := nodes[rng.Intn(len(nodes))]
				if rng.Intn(4) == 0 {
					ops = append(ops, Op{Kind: Del, Target: n.ID})
				} else {
					l := []string{"a", "b", "c"}[rng.Intn(3)]
					f, _ := xmltree.ParseForest(fmt.Sprintf("<%s><b/></%s>", l, l))
					ops = append(ops, Op{Kind: InsLast, Target: n.ID, Forest: f})
				}
			}
			return ops
		}

		// Sequential reference: ∆1, then ∆2 generated against the result.
		e1, v1 := build()
		d1 := mkOps(elements(e1))
		if _, err := Apply(e1, d1); err != nil {
			t.Fatal(err)
		}
		post := elements(e1)
		if len(post) == 0 {
			continue
		}
		d2 := mkOps(post)
		if _, err := Apply(e1, d2); err != nil {
			t.Fatal(err)
		}

		// Aggregated run on a fresh, identical engine.
		e2, v2 := build()
		agg := Aggregate(d1, d2)
		if _, err := Apply(e2, agg); err != nil {
			t.Fatal(err)
		}

		if e1.Doc.String() != e2.Doc.String() {
			t.Fatalf("trial %d: documents differ\nsequential: %s\naggregated: %s\nd1: %v\nd2: %v\nagg: %v",
				trial, e1.Doc, e2.Doc, d1, d2, agg)
		}
		r1, r2 := v1.View.Rows(), v2.View.Rows()
		if len(r1) != len(r2) {
			t.Fatalf("trial %d: views differ (%d vs %d rows)", trial, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Key() != r2[i].Key() || r1[i].Count != r2[i].Count {
				t.Fatalf("trial %d: view row %d differs", trial, i)
			}
		}
		if !e2.CheckView(v2) {
			t.Fatalf("trial %d: aggregated-sequence view inconsistent with recomputation", trial)
		}
	}
}

// TestReduceBlocksMergeAcrossSubtreeOps pins the I5 constraint: a deletion
// inside the insertion target's subtree between two insertions on the same
// node must block the merge — commuting the second insertion past the
// deletion would change which node is the target's last child when the
// forest lands.
func TestReduceBlocksMergeAcrossSubtreeOps(t *testing.T) {
	d := mustDoc(t, `<r><a><b/><c/></a></r>`)
	a := d.Root.ElementChildren()[0]
	c := a.ElementChildren()[1]
	ops := Seq{
		{Kind: InsLast, Target: a.ID, Forest: forest(t, `<x/>`)},
		{Kind: Del, Target: c.ID},
		{Kind: InsLast, Target: a.ID, Forest: forest(t, `<y/>`)},
	}
	got := Reduce(ops)
	if len(got) != 3 {
		t.Fatalf("merge across an intervening subtree deletion: %v", got)
	}
	// An intervening op on an unrelated node must not block the merge.
	other := d.Root
	ops2 := Seq{
		{Kind: InsLast, Target: a.ID, Forest: forest(t, `<x/>`)},
		{Kind: InsLast, Target: other.ID, Forest: forest(t, `<z/>`)},
		{Kind: InsLast, Target: a.ID, Forest: forest(t, `<y/>`)},
	}
	got2 := Reduce(ops2)
	if len(got2) != 2 || len(got2[0].Forest) != 2 {
		t.Fatalf("compatible merge did not fire: %v", got2)
	}
}

// TestAggregateLeavesInputsIntact is the D6 aliasing regression: Aggregate
// must leave both input sequences byte-identical — in particular the splice
// of a ∆2 operation into a ∆1 parameter tree must land in a copy, never in
// the forest the caller still holds.
func TestAggregateLeavesInputsIntact(t *testing.T) {
	d := mustDoc(t, `<r><a/><e/></r>`)
	a := d.Root.ElementChildren()[0]
	e := d.Root.ElementChildren()[1]
	d1 := Seq{
		{Kind: InsLast, Target: a.ID, Forest: forest(t, `<d><b/></d>`)},
		{Kind: InsLast, Target: e.ID, Forest: forest(t, `<c/>`)},
	}
	insideID := a.ID.Child("d", nil).Child("b", nil)
	d2 := Seq{
		{Kind: InsLast, Target: insideID, Forest: forest(t, `<x/>`)}, // D6 splice
		{Kind: InsLast, Target: e.ID, Forest: forest(t, `<y/>`)},     // A1/A2 merge
	}
	fingerprint := func(s Seq) string {
		var sb strings.Builder
		for _, op := range s {
			sb.WriteString(op.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	before1, before2 := fingerprint(d1), fingerprint(d2)
	got := Aggregate(d1, d2)
	if fingerprint(d1) != before1 {
		t.Fatalf("Aggregate mutated ∆1:\nbefore: %safter:  %s", before1, fingerprint(d1))
	}
	if fingerprint(d2) != before2 {
		t.Fatalf("Aggregate mutated ∆2:\nbefore: %safter:  %s", before2, fingerprint(d2))
	}
	// The splice and the merge must still have happened — in the result.
	if len(got) != 2 {
		t.Fatalf("aggregate result: %v", got)
	}
	if got[0].Forest[0].Content() != "<d><b><x/></b></d>" {
		t.Fatalf("D6 splice missing from result: %v", got[0])
	}
	if len(got[1].Forest) != 2 {
		t.Fatalf("A1/A2 merge missing from result: %v", got[1])
	}
}

func randomTree(rng *rand.Rand) string {
	labels := []string{"a", "b", "c"}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		var sb strings.Builder
		sb.WriteString("<" + l + ">")
		if lvl < 3 {
			for i := 0; i < 1+rng.Intn(2); i++ {
				sb.WriteString(build(lvl + 1))
			}
		}
		sb.WriteString("</" + l + ">")
		return sb.String()
	}
	return "<r>" + build(1) + build(1) + "</r>"
}

// TestIntegrateNoFalseConflicts: disjoint PULs integrate without conflicts
// and concatenate in order.
func TestIntegrateNoFalseConflicts(t *testing.T) {
	d := mustDoc(t, `<a><c><b/></c><f/></a>`)
	c := d.Root.ElementChildren()[0]
	f := d.Root.ElementChildren()[1]
	forest1, _ := xmltree.ParseForest(`<x/>`)
	forest2, _ := xmltree.ParseForest(`<y/>`)
	d1 := Seq{{Kind: InsLast, Target: c.ID, Forest: forest1}}
	d2 := Seq{{Kind: InsLast, Target: f.ID, Forest: forest2}}
	merged, conflicts := Integrate(d1, d2)
	if len(conflicts) != 0 {
		t.Fatalf("false conflicts: %v", conflicts)
	}
	if len(merged) != 2 || !merged[0].Target.Equal(c.ID) {
		t.Fatalf("merged = %v", merged)
	}
}

// TestAggregateDisjointConcatenates: aggregation of unrelated PULs is plain
// concatenation.
func TestAggregateDisjointConcatenates(t *testing.T) {
	d := mustDoc(t, `<a><c/><f/></a>`)
	c := d.Root.ElementChildren()[0]
	f := d.Root.ElementChildren()[1]
	forest, _ := xmltree.ParseForest(`<x/>`)
	d1 := Seq{{Kind: InsLast, Target: c.ID, Forest: forest}}
	d2 := Seq{{Kind: Del, Target: f.ID}}
	got := Aggregate(d1, d2)
	if len(got) != 2 || got[0].Kind != InsLast || got[1].Kind != Del {
		t.Fatalf("got %v", got)
	}
}
