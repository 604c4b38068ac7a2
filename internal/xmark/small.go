package xmark

import (
	"fmt"
	"strings"
)

// GenerateSmall produces a compact XMark-style document (a few KB) from a
// seed, for differential and fuzz testing: every section the full generator
// emits is present, but entity counts are drawn small so randomized update
// workloads hit meaningfully overlapping regions. Person counts straddle 12
// so the Q4 view's person12 predicate is sometimes satisfiable and
// sometimes vacuous. A persons count above 0 replaces the 3–14 persons
// drawn: a few dozen or more give /site/people the width of a real
// document's, past the 64 children a leaf of a child list holds (xmltree).
// Same seed and count, same document, on every platform.
func GenerateSmall(seed uint64, persons int) string {
	r := newRng(seed)
	var b strings.Builder
	b.Grow(8 << 10)
	b.WriteString("<site>")

	nCategories := 2 + r.intn(3)
	b.WriteString("<categories>")
	for i := 0; i < nCategories; i++ {
		writeCategory(&b, r, i)
	}
	b.WriteString("</categories>")
	b.WriteString("<catgraph>")
	for i := 0; i < nCategories; i++ {
		fmt.Fprintf(&b, `<edge from="category%d" to="category%d"/>`, i, r.intn(nCategories))
	}
	b.WriteString("</catgraph>")

	nPersons := 3 + r.intn(12)
	if persons > 0 {
		nPersons = persons
	}
	b.WriteString("<people>")
	for i := 0; i < nPersons; i++ {
		writePerson(&b, r, i)
	}
	b.WriteString("</people>")

	// Two regions keep the document small while leaving /site/regions/*
	// wildcard steps with real branching.
	nItems := 0
	b.WriteString("<regions>")
	for _, reg := range []string{"namerica", "europe"} {
		b.WriteString("<" + reg + ">")
		for k := 1 + r.intn(3); k > 0; k-- {
			writeItem(&b, r, nItems)
			nItems++
		}
		b.WriteString("</" + reg + ">")
	}
	b.WriteString("</regions>")

	nAuctions := 1 + r.intn(4)
	b.WriteString("<open_auctions>")
	for i := 0; i < nAuctions; i++ {
		writeAuction(&b, r, i, nPersons, nItems)
	}
	b.WriteString("</open_auctions>")

	b.WriteString("<closed_auctions>")
	for k := 1 + r.intn(2); k > 0; k-- {
		writeClosedAuction(&b, r, nPersons, nItems)
	}
	b.WriteString("</closed_auctions>")

	b.WriteString("</site>")
	return b.String()
}
