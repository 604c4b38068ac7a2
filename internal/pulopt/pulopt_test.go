package pulopt

import (
	"strings"
	"testing"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// fig17Doc approximates the paper's Figure 17 document.
const fig17Doc = `<a>
 <c><b><d><b/></d><d><b/></d><d><b/><e/></d></b></c>
 <f><c><b/></c></f>
 <c><b/></c>
</a>`

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func forest(t *testing.T, s string) []*xmltree.Node {
	t.Helper()
	f, err := xmltree.ParseForest(s)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pathNode resolves an XPath-ish label chain (first match) for tests.
func pathNode(t *testing.T, d *xmltree.Document, labels ...string) *xmltree.Node {
	t.Helper()
	n := d.Root
	for _, l := range labels {
		var next *xmltree.Node
		for k := n.Kids(); k.Next(); {
			c := k.Node()
			if c.Label() == l {
				next = c
				break
			}
		}
		if next == nil {
			t.Fatalf("no %v under %v", l, n.Label())
		}
		n = next
	}
	return n
}

// TestReduceExample51 reproduces Example 5.1: six operations reduce to
// {del(d1.b1), del(d2), ins↘(d3, [b, d[b]])}.
func TestReduceExample51(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	b1 := pathNode(t, d, "c", "b")
	ds := b1.ElementChildren() // d1, d2, d3
	if len(ds) != 3 {
		t.Fatalf("expected 3 d children, got %d", len(ds))
	}
	d1b := ds[0].ElementChildren()[0]
	d2b := ds[1].ElementChildren()[0]

	ops := Seq{
		{Kind: InsLast, Target: d1b.ID(), Forest: forest(t, `<b><d/></b>`)},   // op1
		{Kind: Del, Target: d1b.ID()},                                         // op2
		{Kind: InsLast, Target: d2b.ID(), Forest: forest(t, `<b/>`)},          // op3
		{Kind: Del, Target: ds[1].ID()},                                       // op4
		{Kind: InsLast, Target: ds[2].ID(), Forest: forest(t, `<b/>`)},        // op5
		{Kind: InsLast, Target: ds[2].ID(), Forest: forest(t, `<d><b/></d>`)}, // op6
	}
	got := Reduce(ops)
	if len(got) != 3 {
		t.Fatalf("reduced to %d ops: %v", len(got), got)
	}
	if got[0].Kind != Del || !got[0].Target.Equal(d1b.ID()) {
		t.Fatalf("op0 = %v", got[0])
	}
	if got[1].Kind != Del || !got[1].Target.Equal(ds[1].ID()) {
		t.Fatalf("op1 = %v", got[1])
	}
	if got[2].Kind != InsLast || len(got[2].Forest) != 2 {
		t.Fatalf("op2 = %v", got[2])
	}
}

func TestReduceIdempotentAndOrderPreserving(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	c := pathNode(t, d, "c")
	f := pathNode(t, d, "f")
	ops := Seq{
		{Kind: InsLast, Target: c.ID(), Forest: forest(t, `<x/>`)},
		{Kind: InsLast, Target: f.ID(), Forest: forest(t, `<y/>`)},
		{Kind: InsLast, Target: c.ID(), Forest: forest(t, `<z/>`)},
	}
	got := Reduce(ops)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if !got[0].Target.Equal(c.ID()) || len(got[0].Forest) != 2 {
		t.Fatalf("merge failed: %v", got[0])
	}
	again := Reduce(got)
	if len(again) != len(got) {
		t.Fatal("Reduce not idempotent")
	}
}

func TestReduceO3KillsDescendantOps(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	b1 := pathNode(t, d, "c", "b")
	d3 := b1.ElementChildren()[2]
	ops := Seq{
		{Kind: InsLast, Target: d3.ID(), Forest: forest(t, `<b/>`)},
		{Kind: Del, Target: d3.ElementChildren()[0].ID()}, // deleting a CHILD must not kill the insert on d3
		{Kind: Del, Target: b1.ID()},                      // ancestor delete kills both earlier ops
	}
	got := Reduce(ops)
	if len(got) != 1 || got[0].Kind != Del || !got[0].Target.Equal(b1.ID()) {
		t.Fatalf("got %v", got)
	}
}

// TestIntegrateConflictsExample52 reproduces Example 5.2: every pair
// conflicts (IO, LO, NLO).
func TestIntegrateConflictsExample52(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	b1 := pathNode(t, d, "c", "b")
	ds := b1.ElementChildren()
	d1, d2, d3 := ds[0], ds[1], ds[2]
	d3b := d3.ElementChildren()[0]

	pul1 := Seq{
		{Kind: InsLast, Target: d1.ID(), Forest: forest(t, `<d><b/></d>`)},
		{Kind: Del, Target: d2.ID()},
		{Kind: Del, Target: d3.ID()},
	}
	pul2 := Seq{
		{Kind: InsLast, Target: d1.ID(), Forest: forest(t, `<b/>`)},
		{Kind: InsLast, Target: d2.ID(), Forest: forest(t, `<b/>`)},
		{Kind: InsLast, Target: d3b.ID(), Forest: forest(t, `<b/>`)},
	}
	merged, conflicts := Integrate(pul1, pul2)
	if len(merged) != 6 {
		t.Fatalf("merged %d", len(merged))
	}
	rules := map[string]int{}
	for _, c := range conflicts {
		rules[c.Rule]++
	}
	if rules["IO"] != 1 || rules["LO"] != 1 || rules["NLO"] != 1 {
		t.Fatalf("conflicts = %v", conflicts)
	}
}

// TestAggregateExample53 reproduces Example 5.3: A1, A2 (as merged
// insertions) and D6 all fire.
func TestAggregateExample53(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	b1 := pathNode(t, d, "c", "b")
	ds := b1.ElementChildren()
	d1b := ds[0].ElementChildren()[0]
	d3 := ds[2]

	pul1 := Seq{
		{Kind: InsLast, Target: d1b.ID(), Forest: forest(t, `<c><b/></c>`)},
		{Kind: InsLast, Target: ds[1].ID(), Forest: forest(t, `<b/>`)},
		{Kind: InsLast, Target: d3.ID(), Forest: forest(t, `<d><b/></d>`)},
	}
	// op32 targets the b inside the d tree inserted by op31: its ID is a
	// child of d3 labeled d then b.
	insideID := d3.ID().Child("d", nil).Child("b", nil)
	pul2 := Seq{
		{Kind: InsLast, Target: d1b.ID(), Forest: forest(t, `<b/>`)},
		{Kind: InsLast, Target: ds[1].ID(), Forest: forest(t, `<d><b/></d>`)},
		{Kind: InsLast, Target: insideID, Forest: forest(t, `<b/>`)},
	}
	got := Aggregate(pul1, pul2)
	if len(got) != 3 {
		t.Fatalf("aggregated to %d ops: %v", len(got), got)
	}
	if len(got[0].Forest) != 2 { // A1: c-tree + b
		t.Fatalf("op0 %v", got[0])
	}
	if len(got[1].Forest) != 2 { // A2: b + d-tree
		t.Fatalf("op1 %v", got[1])
	}
	// D6: op32 was applied inside the d3 insertion's parameter tree — the b
	// inside the inserted d gained a b child (ins↘ appends children to its
	// target), and op32 left the second PUL.
	dTree := got[2].Forest[0]
	if dTree.Label() != "d" || dTree.Content() != "<d><b><b/></b></d>" {
		t.Fatalf("D6 splice failed: %s", dTree.Content())
	}
}

// TestReducedSequenceEquivalence: applying the reduced sequence yields the
// same document and views as the original sequence.
func TestReducedSequenceEquivalence(t *testing.T) {
	build := func() (*core.Engine, *core.ManagedView) {
		d := mustDoc(t, fig17Doc)
		e := core.New(d)
		mv, err := e.AddView("v", pattern.MustParse(`//b{ID}//d{ID}//b{ID}`))
		if err != nil {
			t.Fatal(err)
		}
		return e, mv
	}

	mkOps := func(e *core.Engine) Seq {
		d := e.Doc
		b1 := pathNode(t, d, "c", "b")
		ds := b1.ElementChildren()
		d1b := ds[0].ElementChildren()[0]
		d2b := ds[1].ElementChildren()[0]
		return Seq{
			{Kind: InsLast, Target: d1b.ID(), Forest: forest(t, `<b><d/></b>`)},
			{Kind: Del, Target: d1b.ID()},
			{Kind: InsLast, Target: d2b.ID(), Forest: forest(t, `<b/>`)},
			{Kind: Del, Target: ds[1].ID()},
			{Kind: InsLast, Target: ds[2].ID(), Forest: forest(t, `<b/>`)},
			{Kind: InsLast, Target: ds[2].ID(), Forest: forest(t, `<d><b/></d>`)},
		}
	}

	e1, v1 := build()
	if _, err := Apply(e1, mkOps(e1)); err != nil {
		t.Fatal(err)
	}
	e2, v2 := build()
	if _, err := Apply(e2, Reduce(mkOps(e2))); err != nil {
		t.Fatal(err)
	}
	if e1.Doc.String() != e2.Doc.String() {
		t.Fatalf("documents differ:\n%s\nvs\n%s", e1.Doc, e2.Doc)
	}
	r1, r2 := v1.View.Rows(), v2.View.Rows()
	if len(r1) != len(r2) {
		t.Fatalf("views differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if v1.Shape.Compare(r1[i], r2[i]) != 0 || r1[i].Count != r2[i].Count {
			t.Fatalf("row %d differs", i)
		}
	}
	if !e1.CheckView(v1) || !e2.CheckView(v2) {
		t.Fatal("views diverged from recomputation")
	}
}

// TestFromStatements expands statement-level updates to elementary ops.
func TestFromStatements(t *testing.T) {
	d := mustDoc(t, fig17Doc)
	e := core.New(d)
	stmts := []*update.Statement{
		update.MustParse(`for $x in //c insert <q/>`),
		update.MustParse(`delete //e`),
	}
	ops, err := FromStatements(e, stmts)
	if err != nil {
		t.Fatal(err)
	}
	var ins, del int
	for _, op := range ops {
		if op.Kind == InsLast {
			ins++
		} else {
			del++
		}
	}
	if ins != 3 || del != 1 {
		t.Fatalf("ins=%d del=%d ops=%v", ins, del, ops)
	}
	if !strings.Contains(ops[0].String(), "ins↘") {
		t.Fatalf("String: %s", ops[0])
	}
}
