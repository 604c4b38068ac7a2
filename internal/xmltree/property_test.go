package xmltree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDocSrc builds a random well-formed document string.
func randomDocSrc(rng *rand.Rand) string {
	labels := []string{"a", "b", "c", "d"}
	texts := []string{"", "x", "hello world", "5 < 6 & 7", `quote " here`}
	var build func(lvl int) string
	build = func(lvl int) string {
		l := labels[rng.Intn(len(labels))]
		s := "<" + l
		if rng.Intn(3) == 0 {
			s += fmt.Sprintf(` k="%d"`, rng.Intn(100))
		}
		s += ">"
		if txt := texts[rng.Intn(len(texts))]; txt != "" && rng.Intn(2) == 0 {
			s += escape(txt)
		}
		if lvl < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				s += build(lvl + 1)
			}
		}
		return s + "</" + l + ">"
	}
	return "<root>" + build(1) + build(1) + "</root>"
}

func escape(s string) string {
	out := ""
	for _, r := range s {
		switch r {
		case '<':
			out += "&lt;"
		case '&':
			out += "&amp;"
		case '"':
			out += "&quot;"
		default:
			out += string(r)
		}
	}
	return out
}

// Serialization is a fixpoint after one round trip, and round-tripping
// preserves structure counts and string values.
func TestSerializeParseFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomDocSrc(rng)
		d1, err := ParseString(src)
		if err != nil {
			return false
		}
		s1 := d1.String()
		d2, err := ParseString(s1)
		if err != nil {
			return false
		}
		if d2.String() != s1 {
			return false
		}
		return d1.Size() == d2.Size() && d1.Root.StringValue() == d2.Root.StringValue()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Random insert/delete sequences keep ID resolution and the node count exact
// and document order strict.
func TestMutationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := ParseString(randomDocSrc(rng))
		if err != nil {
			return false
		}
		for step := 0; step < 10; step++ {
			var elems []*Node
			Walk(d.Root, func(n *Node) bool {
				if n.Kind == Element {
					elems = append(elems, n)
				}
				return true
			})
			n := elems[rng.Intn(len(elems))]
			if rng.Intn(2) == 0 || n == d.Root {
				forest, err := ParseForest(fmt.Sprintf("<%s><x/></%s>",
					[]string{"a", "b"}[rng.Intn(2)], []string{"a", "b"}[rng.Intn(2)]))
				if err != nil { // mismatched tags: skip this step
					continue
				}
				if _, err := d.ApplyInsert(n, forest[0]); err != nil {
					return false
				}
			} else {
				if _, err := d.ApplyDelete(n); err != nil {
					return false
				}
			}
			// Every attached node resolves to itself, in document order.
			count := 0
			ok := true
			var prev *Node
			Walk(d.Root, func(m *Node) bool {
				count++
				if d.NodeByID(m.ID()) != m {
					ok = false
				}
				if prev != nil && prev.ID().Compare(m.ID()) >= 0 {
					ok = false
				}
				prev = m
				return true
			})
			if !ok || count != d.Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ApplyDeleteBatch equals one-by-one deletion.
func TestApplyDeleteBatchMatchesSingles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomDocSrc(rng)
		d1, _ := ParseString(src)
		d2, _ := ParseString(src)

		// Pick disjoint victims (no ancestor pairs), identical in both docs.
		var keys []string
		var chosen []*Node
		Walk(d1.Root, func(n *Node) bool {
			if n == d1.Root || n.Kind != Element {
				return true
			}
			for _, c := range chosen {
				if c.ID().Equal(n.ID()) || c.ID().IsAncestorOf(n.ID()) {
					return true
				}
			}
			if rng.Intn(4) == 0 {
				chosen = append(chosen, n)
				keys = append(keys, n.ID().Key())
			}
			return true
		})
		if len(chosen) == 0 {
			return true
		}
		if _, _, err := d1.ApplyDeleteBatch(chosen); err != nil {
			return false
		}
		for _, k := range keys {
			var n2 *Node
			Walk(d2.Root, func(n *Node) bool {
				if n.ID().Key() == k {
					n2 = n
				}
				return true
			})
			if n2 == nil {
				return false
			}
			if _, err := d2.ApplyDelete(n2); err != nil {
				return false
			}
		}
		return d1.String() == d2.String() && d1.Size() == d2.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeleteBatchErrors(t *testing.T) {
	d, _ := ParseString(`<r><a/></r>`)
	if _, _, err := d.ApplyDeleteBatch([]*Node{nil}); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, _, err := d.ApplyDeleteBatch([]*Node{d.Root}); err == nil {
		t.Fatal("root deletion accepted")
	}
	a := d.Root.ElementChildren()[0]
	got, _, err := d.ApplyDeleteBatch([]*Node{a, a})
	if err != nil || len(got) != 1 {
		t.Fatalf("duplicate handling: %v %v", got, err)
	}
}
