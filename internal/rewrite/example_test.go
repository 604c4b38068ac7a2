package rewrite_test

import (
	"fmt"
	"log"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/rewrite"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// ExampleAnswer stitches two ID-complete views on a shared node to answer a
// longer query without touching the document.
func ExampleAnswer() {
	doc, _ := xmltree.ParseString(`<a><c><b/><b/></c><c><b/></c></a>`)
	mk := func(name, src string) *rewrite.View {
		p := pattern.MustParse(src)
		return &rewrite.View{Name: name, Pattern: p,
			Rows: store.NewViewOf(algebra.NewShape(p), algebra.Materialize(doc, p))}
	}
	views := []*rewrite.View{mk("ac", `//a{ID}//c{ID}`), mk("cb", `//c{ID}//b{ID}`)}

	q := pattern.MustParse(`//a{ID}//c{ID}//b{ID}`)
	rows, plan, err := rewrite.Answer(q, views)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Explain())
	fmt.Println("rows:", len(rows))
	// Output:
	// stitch of ac and cb on query node 1
	// rows: 3
}
