package xmark

import (
	"sort"

	"xivm/internal/pattern"
	"xivm/internal/view"
)

// viewSources defines the benchmark views in the paper's conjunctive
// XQuery dialect (Appendix A.6), simplified exactly as the paper simplifies
// the XMark originals to fit the view language.
var viewSources = map[string]string{
	// Q1: names of registered persons.
	"Q1": `let $auction := doc("auction.xml") return
for $b in $auction/site/people/person[@id]
return $b/name/text()`,

	// Q2: bid increases of open auctions.
	"Q2": `let $auction := doc("auction.xml") return
for $b in $auction/site/open_auctions/open_auction
return $b/bidder/increase`,

	// Q3: increases of auctions having a 4.50 increase.
	"Q3": `let $auction := doc("auction.xml") return
for $b in $auction/site/open_auctions/open_auction
where $b/bidder/increase/text() = "4.50"
return $b/bidder/increase/text()`,

	// Q4: increases of auctions bid on by person12.
	"Q4": `let $auction := doc("auction.xml") return
for $b in $auction/site/open_auctions/open_auction
where $b/bidder/personref[@person = "person12"]
return $b/bidder/increase/text()`,

	// Q6: all items, per region.
	"Q6": `let $auction := doc("auction.xml") return
for $b in $auction/site/regions, $i in $b//item
return $i`,

	// Q13: North-American item names and descriptions.
	"Q13": `let $auction := doc("auction.xml") return
for $i in $auction/site/regions/namerica/item
return $i/name/text(), $i/description`,

	// Q17: names of persons with a homepage.
	"Q17": `let $auction := doc("auction.xml") return
for $b in $auction/site/people/person[homepage]
return $b/name/text()`,
}

// ViewNames lists the benchmark views in canonical order.
func ViewNames() []string {
	out := make([]string, 0, len(viewSources))
	for n := range viewSources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// View compiles a benchmark view to its tree pattern. It panics on unknown
// names — the set is static.
func View(name string) *pattern.Pattern {
	src, ok := viewSources[name]
	if !ok {
		panic("xmark: unknown view " + name)
	}
	return view.MustCompile(src).Pattern
}

// AnnotationVariant selects the stored-attribute layout of the Q1 view
// variants used by the paper's Figure 24 experiment. All variants store IDs
// on all nodes; they differ in where val and cont are stored.
type AnnotationVariant string

// The Figure 24 variants.
const (
	VariantIDs          AnnotationVariant = "IDs"
	VariantVCLeaf       AnnotationVariant = "VC Leaf"
	VariantVCRoot       AnnotationVariant = "VC Root"
	VariantVCAllButRoot AnnotationVariant = "VC All Nodes but Root"
	VariantVCAll        AnnotationVariant = "VC All Nodes"
)

// AnnotationVariants lists the Figure 24 variants in the paper's order.
func AnnotationVariants() []AnnotationVariant {
	return []AnnotationVariant{VariantIDs, VariantVCLeaf, VariantVCRoot, VariantVCAllButRoot, VariantVCAll}
}

// Q1Variant builds the Figure 24 view variant: the pattern
// /site/people/person[@id]/name with IDs everywhere and val+cont per the
// variant.
func Q1Variant(v AnnotationVariant) *pattern.Pattern {
	base := pattern.MustParse(`/site{ID}/people{ID}/person{ID}[/@id{ID}]/name{ID}`)
	vc := pattern.StoreVal | pattern.StoreCont
	return base.Clone(func(i int, s pattern.Store) pattern.Store {
		switch v {
		case VariantVCLeaf:
			if i == base.Size()-1 {
				return s | vc
			}
		case VariantVCRoot:
			if i == 0 {
				return s | vc
			}
		case VariantVCAllButRoot:
			if i != 0 {
				return s | vc
			}
		case VariantVCAll:
			return s | vc
		}
		return s
	})
}
