package pulopt_test

import (
	"fmt"

	"xivm/internal/pulopt"
	"xivm/internal/xmltree"
)

// ExampleReduce shows the O1/O3/I5 reduction rules collapsing a redundant
// operation sequence.
func ExampleReduce() {
	doc, _ := xmltree.ParseString(`<r><a><b/></a></r>`)
	a := doc.Root.ElementChildren()[0]
	b := a.ElementChildren()[0]
	f1, _ := xmltree.ParseForest(`<x/>`)
	f2, _ := xmltree.ParseForest(`<y/>`)

	ops := pulopt.Seq{
		{Kind: pulopt.InsLast, Target: b.ID(), Forest: f1}, // killed by O3 (ancestor delete)
		{Kind: pulopt.InsLast, Target: a.ID(), Forest: f1}, // killed by O1 (same-node delete)
		{Kind: pulopt.Del, Target: a.ID()},
		{Kind: pulopt.InsLast, Target: doc.Root.ID(), Forest: f1},
		{Kind: pulopt.InsLast, Target: doc.Root.ID(), Forest: f2}, // merged by I5
	}
	reduced := pulopt.Reduce(ops)
	fmt.Println(len(ops), "->", len(reduced))
	for _, op := range reduced {
		fmt.Println(op)
	}
	// Output:
	// 5 -> 2
	// del(r1.a1)
	// ins↘(r1, <x/><y/>)
}
