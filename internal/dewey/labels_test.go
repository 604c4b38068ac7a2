package dewey

import (
	"fmt"
	"strings"
	"testing"
)

// TestLabelTableStopsAtItsCap: a document with more distinct labels than the
// table has codes, some of them too long for it, keeps every key property and
// reads back what it was built from; the table fills to its cap and no
// further, and what it refused is spelled out in the frames. Lookup answers
// what Code would, and assigns nothing.
func TestLabelTableStopsAtItsCap(t *testing.T) {
	before, _ := LabelStats()
	if Lookup("cap-looked-up") != litCode {
		t.Fatal("Lookup found a code for a label no one coded")
	}
	if codes, _ := LabelStats(); codes != before {
		t.Fatalf("Lookup assigned %d codes", codes-before)
	}
	root := builtRoot("capsite")
	var nodes []built
	for i := 0; i < maxCodes+500; i++ {
		label := fmt.Sprintf("cap%05d", i)
		if i%97 == 0 {
			label += strings.Repeat("x", 1024) // too long for the table, whether or not it is full
		}
		parent := root
		if len(nodes) > 0 && i%3 != 0 {
			parent = nodes[i/3] // some depth, and siblings under many parents
		}
		nodes = append(nodes, parent.child(label, OrdAt(i)))
	}
	if n := len(*table.labels.Load()); n != maxCodes {
		t.Fatalf("the label table holds %d codes, its cap is %d", n, maxCodes)
	}
	_, refused := LabelStats()
	if Code("cap-after-the-cap") != litCode {
		t.Fatal("a full table handed out a code")
	}
	if codes, now := LabelStats(); codes != maxCodes-1 || now != refused+1 {
		t.Fatalf("LabelStats() = %d codes, %d refusals; want %d, %d", codes, now, maxCodes-1, refused+1)
	}
	if c := Code("cap00001"); c == litCode || LabelOf(c) != "cap00001" || Lookup("cap00001") != c {
		t.Fatalf("Code(cap00001) = %d in a full table; LabelOf answers %q, Lookup %d", c, LabelOf(c), Lookup("cap00001"))
	}
	if Lookup("cap-after-the-cap") != litCode {
		t.Fatal("Lookup found a code for a refused label")
	}
	literal := 0
	for i, b := range nodes {
		label := b.steps[len(b.steps)-1].Label
		if Code(label) == litCode {
			literal++
			if !strings.HasSuffix(b.id.Key(), label) {
				t.Fatalf("refused label %.20q… is not spelled out at the end of its key", label)
			}
		}
		checkDecodes(t, b)
		if got := b.id.String(); !strings.HasSuffix(got, "."+label+fmt.Sprint(i+1)) {
			t.Fatalf("String() = %.40q…, want it to end in %.20q…%d", got, label, i+1)
		}
		if i%7 == 0 {
			other := nodes[(i*31+11)%len(nodes)]
			checkKeyProperties(t, b, other)
			checkKeyProperties(t, other, b)
		}
	}
	if literal < 500 {
		t.Fatalf("%d labels were spelled out; past the cap every fresh label should be", literal)
	}
}
