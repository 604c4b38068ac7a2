package bench

import (
	"time"

	"xivm/internal/core"
	"xivm/internal/pulopt"
	"xivm/internal/qvm"
	"xivm/internal/xmltree"
)

// RuleRow is one x of Figures 33–35: the time to propagate an overlapping
// update sequence with and without the reduction rules, at one overlap
// percentage.
type RuleRow struct {
	Percent    int
	Optimized  time.Duration // includes the reduction time itself
	Unoptimize time.Duration
}

// RunRule reproduces Figures 33 (O1), 34 (O3) and 35 (I5): the update X1_L
// runs alongside a second update targeting the same nodes as `percent`% of
// X1_L's targets, against view Q1, on a 100KB-class document. The sequences
// are expanded to elementary operations (CP), optionally reduced (OR), and
// propagated operation by operation.
func RunRule(rule string, percents []int, docBytes int) []RuleRow {
	src := Doc(docBytes)
	var rows []RuleRow
	for _, pct := range percents {
		row := RuleRow{Percent: pct}
		for _, optimize := range []bool{true, false} {
			optimize := optimize
			total := bestDur(func() time.Duration {
				e, _ := engineWith(src, "Q1")
				ops := ruleWorkload(e, rule, pct)
				start := time.Now()
				if optimize {
					ops = pulopt.Reduce(ops)
				}
				if _, err := pulopt.Apply(e, ops); err != nil {
					panic(err)
				}
				return time.Since(start)
			})
			if optimize {
				row.Optimized = total
			} else {
				row.Unoptimize = total
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// peoplePerson selects the persons every rule workload targets.
var peoplePerson = func() *qvm.Program {
	p, err := qvm.CompileString(`/site/people/person`)
	if err != nil {
		panic(err)
	}
	return p
}()

// ruleWorkload builds the elementary operation sequence for one rule test:
// the overlapping secondary operations (on the first pct% of persons) run
// first, followed by the full X1_L primary sequence, mirroring the paper's
// "run simultaneously" setup.
func ruleWorkload(e *core.Engine, rule string, pct int) pulopt.Seq {
	persons := peoplePerson.Eval(e.Doc)
	overlap := persons[:len(persons)*pct/100]
	nameForest := mustForest(`<name>Martin<name>and</name><name>some</name><name>test</name><name>nodes</name></name>`)
	extraForest := mustForest(`<name>Extra</name>`)

	var ops pulopt.Seq
	switch rule {
	case "O1":
		// Duplicate deletions: the secondary update deletes the same
		// persons the primary deletes; O1 drops the duplicates.
		for _, p := range overlap {
			ops = append(ops, pulopt.Op{Kind: pulopt.Del, Target: p.ID()})
		}
		for _, p := range persons {
			ops = append(ops, pulopt.Op{Kind: pulopt.Del, Target: p.ID()})
		}
	case "O3":
		// The secondary update touches descendants (names) of nodes the
		// primary update deletes; O3 drops the descendant operations.
		for _, p := range overlap {
			for k := p.Kids(); k.Next(); {
				n := k.Node()
				if n.Label() == "name" {
					ops = append(ops, pulopt.Op{Kind: pulopt.Del, Target: n.ID()})
				}
			}
		}
		for _, p := range persons {
			ops = append(ops, pulopt.Op{Kind: pulopt.Del, Target: p.ID()})
		}
	case "I5":
		// Two insertions per overlapping person; I5 merges them.
		for _, p := range overlap {
			ops = append(ops, pulopt.Op{Kind: pulopt.InsLast, Target: p.ID(), Forest: extraForest})
		}
		for _, p := range persons {
			ops = append(ops, pulopt.Op{Kind: pulopt.InsLast, Target: p.ID(), Forest: nameForest})
		}
	default:
		panic("bench: unknown rule " + rule)
	}
	return ops
}

func mustForest(s string) []*xmltree.Node {
	f, err := xmltree.ParseForest(s)
	if err != nil {
		panic(err)
	}
	return f
}
