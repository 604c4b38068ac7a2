package core_test

import (
	"fmt"
	"log"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// ExampleEngine shows the full lifecycle: materialize a view, apply a
// statement-level insertion and deletion, and read the maintained rows.
func ExampleEngine() {
	doc, err := xmltree.ParseString(`<lib><shelf><book>Go</book></shelf><shelf/></lib>`)
	if err != nil {
		log.Fatal(err)
	}
	engine := core.New(doc)
	mv, err := engine.AddView("books", pattern.MustParse(`//shelf{ID}/book{ID,val}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", mv.View.Len())

	rep, err := engine.ApplyStatement(update.MustParse(`for $s in /lib/shelf insert <book>SQL</book>`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("added:", rep.Views[0].RowsAdded, "rows:", mv.View.Len())

	if _, err := engine.ApplyStatement(update.MustParse(`delete //book[text()="Go"]`)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", mv.View.Len(), "consistent:", engine.CheckView(mv))
	// Output:
	// rows: 1
	// added: 2 rows: 3
	// rows: 2 consistent: true
}
