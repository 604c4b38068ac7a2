// Pulbatch: optimizing update sequences before propagation (Section 5). A
// batch of statement-level updates is expanded into elementary operations
// (CP), reduced with the rules O1/O3/I5 (OR), and only then propagated to
// the maintained views — the Figure 13 pipeline. The program shows the
// operation counts before and after reduction, conflict detection between
// parallel batches, and the end-state equivalence of the two plans.
package main

import (
	"fmt"
	"log"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

func build() (*core.Engine, *core.ManagedView) {
	src := xmark.Generate(xmark.Config{TargetBytes: 80 << 10, Seed: 3})
	doc, err := xmltree.ParseString(src)
	if err != nil {
		log.Fatal(err)
	}
	e := core.New(doc)
	mv, err := e.AddView("names", pattern.MustParse(`//person{ID}/name{ID,val}`))
	if err != nil {
		log.Fatal(err)
	}
	return e, mv
}

func main() {
	// A redundant batch: insert names everywhere, insert more names under
	// phone-owners, then delete the phone-owners entirely — the first two
	// statements are (partially) wasted work that the rules reclaim.
	stmts := []*update.Statement{
		update.MustParse(`for $p in /site/people/person insert <name>tag</name>`),
		update.MustParse(`for $p in /site/people/person[phone] insert <name>extra</name>`),
		update.MustParse(`delete /site/people/person[phone]`),
	}

	e1, v1 := build()
	ops, err := pulopt.FromStatements(e1, stmts)
	if err != nil {
		log.Fatal(err)
	}
	reduced := pulopt.Reduce(ops)
	fmt.Printf("elementary operations: %d before reduction, %d after (O1/O3/I5)\n",
		len(ops), len(reduced))

	t1, err := pulopt.Apply(e1, ops)
	if err != nil {
		log.Fatal(err)
	}
	e2, v2 := build()
	ops2, err := pulopt.FromStatements(e2, stmts)
	if err != nil {
		log.Fatal(err)
	}
	t2, err := pulopt.Apply(e2, pulopt.Reduce(ops2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("propagation: original %v, reduced %v\n", t1, t2)

	r1, r2 := v1.View.Rows(), v2.View.Rows()
	same := len(r1) == len(r2)
	for i := 0; same && i < len(r1); i++ {
		same = v1.Shape.Compare(r1[i], r2[i]) == 0 && r1[i].Count == r2[i].Count
	}
	fmt.Printf("views identical under both plans: %v (%d rows)\n", same, len(r1))
	fmt.Printf("consistent with recomputation: %v\n", e2.CheckView(v2))

	// Conflict detection between batches meant to run in parallel.
	persons := e2.Doc.Root.ElementChildren()[0].ElementChildren()
	p0 := persons[0]
	forest, _ := xmltree.ParseForest(`<name>par</name>`)
	d1 := pulopt.Seq{{Kind: pulopt.Del, Target: p0.ID()}}
	d2 := pulopt.Seq{{Kind: pulopt.InsLast, Target: p0.ID(), Forest: forest}}
	_, conflicts := pulopt.Integrate(d1, d2)
	fmt.Printf("\nparallel PULs on person0: %d conflict(s)\n", len(conflicts))
	for _, c := range conflicts {
		fmt.Println("  ", c)
	}
}
