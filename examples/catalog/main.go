// Catalog: DTD-gated maintenance (Section 3.3). A product catalog is
// described by a DTD-as-CFG; every insertion is first screened by the fast
// ∆-table co-occurrence constraints derived from the grammar, then by full
// content-model validation, and only schema-preserving updates reach the
// maintained view.
package main

import (
	"fmt"
	"log"

	"xivm/internal/core"
	"xivm/internal/dtd"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

const grammar = `
catalog -> product+
product -> name, price, STOCK?
STOCK   -> quantity, warehouse
name -> #text
price -> #text
quantity -> #text
warehouse -> #text
`

const document = `
<catalog>
  <product><name>Clock</name><price>30</price></product>
  <product><name>Violin</name><price>900</price>
    <quantity>2</quantity><warehouse>Lille</warehouse></product>
</catalog>`

func main() {
	g := dtd.MustParse(grammar)
	fmt.Println("derived ∆+ constraints:")
	for _, c := range g.Constraints() {
		fmt.Println("  ", c)
	}

	doc, err := xmltree.ParseString(document)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.ValidateDocument(doc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninitial document valid ✓")

	engine := core.NewEngine(doc, core.Options{})
	mv, err := engine.AddView("prices", pattern.MustParse(`//product{ID}/price{ID,val}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view prices: %d rows\n", mv.View.Len())

	apply := func(stmt string) {
		fmt.Printf("\n>> %s\n", stmt)
		st := update.MustParse(stmt)
		if st.Kind == update.Insert {
			// Fast pre-check on the would-be ∆+ tables (Examples 3.9/3.10).
			if bad := g.CheckDeltaConstraints(dtd.DeltaSizes(st.Forest)); len(bad) > 0 {
				fmt.Printf("   rejected by ∆ constraints: %v\n", bad)
				return
			}
			// Full content-model check at each target.
			pul, err := update.ComputePUL(engine.Doc, st)
			if err != nil {
				fmt.Printf("   failed: %v\n", err)
				return
			}
			for _, in := range pul.Inserts {
				if err := g.CheckInsert(in.Target, st.Forest); err != nil {
					fmt.Printf("   rejected: %v\n", err)
					return
				}
			}
		}
		rep, err := engine.ApplyStatement(st)
		if err != nil {
			fmt.Printf("   failed: %v\n", err)
			return
		}
		fmt.Printf("   applied: +%d rows, view now %d rows\n",
			rep.Views[0].RowsAdded, mv.View.Len())
		if err := g.ValidateDocument(engine.Doc); err != nil {
			log.Fatalf("document became invalid: %v", err)
		}
	}

	// A complete, valid product: accepted and propagated.
	apply(`insert <product><name>Atlas</name><price>55</price></product> into /catalog`)

	// A product missing its mandatory price: caught by the ∆ constraint
	// before any evaluation happens.
	apply(`insert <product><name>Broken</name></product> into /catalog`)

	// Structurally complete product but inserted in the wrong place: the
	// content-model context check rejects it.
	apply(`insert <product><name>Nested</name><price>1</price></product> into /catalog/product`)

	fmt.Printf("\nview still consistent with recomputation: %v\n", engine.CheckView(mv))
}
