package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"xivm/internal/xmltree"
)

// RandomDoc generates a small random document over a 3-letter label
// alphabet with occasional text. It drives the evaluator's differential
// test and the compiled-vs-interpreted tests in internal/qvm.
func RandomDoc(rng *rand.Rand) string {
	labels := []string{"a", "b", "c"}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		s := "<" + l + ">"
		if rng.Intn(4) == 0 {
			s += "5"
		}
		if lvl < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				s += build(lvl + 1)
			}
		}
		return s + "</" + l + ">"
	}
	return "<r>" + build(1) + build(1) + "</r>"
}

// RandomQuery generates a random query over the full widened grammar:
// child/descendant/sibling axes, wildcards, and predicates drawn from
// existence, comparison, position, last(), count(), contains() and
// starts-with().
func RandomQuery(rng *rand.Rand) string {
	labels := []string{"a", "b", "c"}
	var sb strings.Builder
	steps := 1 + rng.Intn(3)
	for i := 0; i < steps; i++ {
		axis := rng.Intn(6)
		switch {
		case i > 0 && axis == 4:
			sb.WriteString("/following-sibling::")
		case i > 0 && axis == 5:
			sb.WriteString("/preceding-sibling::")
		case axis%2 == 1:
			sb.WriteString("//")
		default:
			sb.WriteString("/")
		}
		name := labels[rng.Intn(len(labels))]
		if rng.Intn(5) == 0 {
			name = "*"
		}
		sb.WriteString(name)
		if rng.Intn(3) == 0 {
			switch rng.Intn(8) {
			case 0:
				fmt.Fprintf(&sb, "[%s]", labels[rng.Intn(3)])
			case 1:
				fmt.Fprintf(&sb, "[%s='5']", labels[rng.Intn(3)])
			case 2:
				fmt.Fprintf(&sb, "[%s or %s]", labels[rng.Intn(3)], labels[rng.Intn(3)])
			case 3:
				fmt.Fprintf(&sb, "[%d]", 1+rng.Intn(3))
			case 4:
				sb.WriteString("[last()]")
			case 5:
				fmt.Fprintf(&sb, "[count(%s)%s%d]",
					labels[rng.Intn(3)],
					[]string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)],
					rng.Intn(3))
			case 6:
				fmt.Fprintf(&sb, "[contains(%s,'5')]", labels[rng.Intn(3)])
			case 7:
				fmt.Fprintf(&sb, "[starts-with(text(),'5')]")
			}
		}
	}
	return sb.String()
}

// RandomEdits applies one to three random subtree insertions and deletions
// to d. Between two Snapshot calls it makes the second image a path-copied
// one — some spines new, the rest shared with the first — which is the kind
// of document the serving path evaluates queries on.
func RandomEdits(rng *rand.Rand, d *xmltree.Document) {
	for i := 1 + rng.Intn(3); i > 0; i-- {
		var all, elems []*xmltree.Node
		xmltree.Walk(d.Root, func(n *xmltree.Node) bool {
			all = append(all, n)
			if n.Kind == xmltree.Element {
				elems = append(elems, n)
			}
			return true
		})
		if len(all) == 1 || rng.Intn(2) == 0 {
			_, _ = d.ApplyInsert(elems[rng.Intn(len(elems))], elems[rng.Intn(len(elems))])
		} else {
			_, _ = d.ApplyDelete(all[1+rng.Intn(len(all)-1)])
		}
	}
}
