// Querycache: answering queries from maintained views. ID-complete views
// are materialized once and kept current by the engine; incoming tree-
// pattern queries are then answered from the views alone — single-view
// rewrites with residual ID/value filters, or two views stitched on a
// shared node's structural ID — without touching the base document, and
// stay correct across updates.
//
// Every rewritten answer is cross-checked against direct evaluation at
// CONTENT level — row identity, stored values/contents, and derivation
// counts, in order — not just row counts: a rewrite that returns the right
// number of rows with empty values is exactly the bug a count-only check
// waves through. Any mismatch makes the example exit non-zero.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/rewrite"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// diffRows reports the first content-level difference between a rewritten
// answer and direct evaluation, both rows of shape, or "" when they agree
// exactly.
func diffRows(shape *algebra.Shape, rows, direct []algebra.Row) string {
	if len(rows) != len(direct) {
		return fmt.Sprintf("row count %d vs %d", len(rows), len(direct))
	}
	for i := range rows {
		a, b := rows[i], direct[i]
		if a.Count != b.Count {
			return fmt.Sprintf("row %d count %d vs %d", i, a.Count, b.Count)
		}
		for j := range shape.Width() {
			ea, eb := shape.Entry(a, j), shape.Entry(b, j)
			if !ea.ID.Equal(eb.ID) {
				return fmt.Sprintf("row %d entry %d ID %v vs %v", i, j, ea.ID, eb.ID)
			}
			if ea.Val != eb.Val {
				return fmt.Sprintf("row %d entry %d val %q vs %q", i, j, ea.Val, eb.Val)
			}
			if ea.Cont != eb.Cont {
				return fmt.Sprintf("row %d entry %d cont %q vs %q", i, j, ea.Cont, eb.Cont)
			}
		}
	}
	return ""
}

func main() {
	src := xmark.Generate(xmark.Config{TargetBytes: 60 << 10, Seed: 5})
	doc, err := xmltree.ParseString(src)
	if err != nil {
		log.Fatal(err)
	}
	engine := core.New(doc)

	// An ID-complete view library: small patterns that compose. Names are
	// registered in sorted order so runs are reproducible — map iteration
	// order would otherwise shuffle both the printout and the planner's
	// tie-breaks between equal-cost views.
	lib := map[string]string{
		"auction-bidder":   `//open_auction{ID}//bidder{ID}`,
		"bidder-increase":  `//bidder{ID}//increase{ID,val}`,
		"person-name":      `//person{ID}//name{ID,val}`,
		"auction-increase": `//open_auction{ID}//increase{ID}`,
	}
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	var views []*rewrite.View
	for _, name := range names {
		mv, err := engine.AddView(name, pattern.MustParse(lib[name]))
		if err != nil {
			log.Fatal(err)
		}
		views = append(views, &rewrite.View{Name: name, Pattern: mv.Pattern, Rows: mv.View})
		fmt.Printf("view %-18s %-38s %5d rows\n", name, mv.Pattern, mv.View.Len())
	}

	failed := false
	ask := func(qs string) {
		q := pattern.MustParse(qs)
		rows, plan, err := rewrite.Answer(q, views)
		if err != nil {
			fmt.Printf("\nQ: %s\n   %v\n", qs, err)
			return
		}
		// Cross-check against direct evaluation on the live document.
		direct := algebra.Materialize(engine.Doc, q)
		status := "MATCHES direct evaluation (ids, values, counts)"
		if d := diffRows(algebra.NewShape(q), rows, direct); d != "" {
			status = "MISMATCH: " + d
			failed = true
		}
		fmt.Printf("\nQ: %s\n   %s → %d rows, %s\n", qs, plan.Explain(), len(rows), status)
	}

	queries := []string{
		`//open_auction{ID}//bidder{ID}`,               // single view, exact
		`//open_auction{ID}/bidder{ID}`,                // residual ≺ filter on IDs
		`//bidder{ID}//increase{ID,val}[val="4.50"]`,   // residual value filter
		`//open_auction{ID}//bidder{ID}//increase{ID}`, // two views stitched on bidder
		`//person{ID}//phone{ID}`,                      // not answerable from the library
	}
	for _, q := range queries {
		ask(q)
	}

	// The views stay queryable across updates — the engine maintains them,
	// and the rewrites keep matching direct evaluation.
	fmt.Println("\napplying updates…")
	for _, stmt := range []string{
		`for $b in /site/open_auctions/open_auction/bidder insert <increase>4.50</increase>`,
		`delete /site/open_auctions/open_auction[privacy]/bidder`,
	} {
		if _, err := engine.ApplyStatement(update.MustParse(stmt)); err != nil {
			log.Fatal(err)
		}
	}
	for _, q := range queries[:4] {
		ask(q)
	}
	if failed {
		fmt.Println("\nFAIL: at least one rewrite diverged from direct evaluation")
		os.Exit(1)
	}
}
