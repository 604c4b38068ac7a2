// Quickstart: materialize a view over an XML document, apply an insertion
// and a deletion, and watch the engine keep the view current without
// recomputing it — the end-to-end flow of the paper's Figure 1.
package main

import (
	"fmt"
	"log"

	"xivm/internal/core"
	"xivm/internal/update"
	"xivm/internal/view"
	"xivm/internal/xmltree"
)

const document = `
<library>
  <shelf floor="1">
    <book year="2001"><title>A Study of Trees</title><author>Ann</author></book>
    <book year="2011"><title>Algebra at Work</title><author>Bob</author></book>
  </shelf>
  <shelf floor="2">
    <book year="2011"><title>Views in Depth</title><author>Ann</author></book>
  </shelf>
</library>`

func main() {
	doc, err := xmltree.ParseString(document)
	if err != nil {
		log.Fatal(err)
	}

	// Views are written in the paper's conjunctive XQuery dialect and
	// compiled to tree patterns.
	def, err := view.Compile(`
for $b in doc("lib")//book, $t in $b/title
return <r><id>{id($b)}</id><title>{string($t)}</title></r>`)
	if err != nil {
		log.Fatal(err)
	}

	engine := core.New(doc)
	mv, err := engine.AddView("titles", def.Pattern)
	if err != nil {
		log.Fatal(err)
	}
	show := func(when string) {
		fmt.Printf("--- %s: %d rows\n", when, mv.View.Len())
		for _, r := range mv.View.Rows() {
			fmt.Printf("  book %v  title=%q\n", r.ID(0), mv.Shape.Entry(r, 1).Val)
		}
	}
	show("initial view")

	// A statement-level insertion: every floor-1 shelf gains a book. The
	// engine propagates the whole statement in one algebraic pass (PINT).
	ins := update.MustParse(`for $s in /library/shelf[@floor="1"]
insert <book year="2024"><title>Fresh Ink</title><author>Cy</author></book>`)
	rep, err := engine.ApplyStatement(ins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninsert: %d targets, +%d rows, %d/%d terms evaluated\n",
		rep.Targets, rep.Views[0].RowsAdded, rep.Views[0].TermsSurvived, rep.Views[0].TermsTotal)
	show("after insert")

	// A statement-level deletion (PDDT/PDMT).
	del := update.MustParse(`delete //book[author="Ann"]`)
	rep, err = engine.ApplyStatement(del)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndelete: %d targets, -%d rows\n", rep.Targets, rep.Views[0].RowsRemoved)
	show("after delete")

	// The maintained view always matches recomputation from scratch.
	fmt.Printf("\nconsistent with full recomputation: %v\n", engine.CheckView(mv))
}
