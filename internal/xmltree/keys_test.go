package xmltree

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"xivm/internal/dewey"
)

// chainDoc has attributes, mixed content, a label the table refuses for
// its length, a deep first-child chain and a list of more than 64 children.
func chainDoc() string {
	long := strings.Repeat("l", 70)
	var b strings.Builder
	b.WriteString(`<r id="1"><a><b><c><d>deep</d></c></b><e/></a>x<m>y<i/>z</m><` + long + ` k="v"><p/></` + long + `><w>`)
	for range 70 {
		b.WriteString(`<k><v>t</v></k>`)
	}
	b.WriteString(`</w></r>`)
	return b.String()
}

// checkChains checks that in the tree under root every node with children
// holds its key in its first child's bytes, and that there are as many
// distinct key arrays as first-child chains — as leaves, each chain ending
// in one — along with the payload layout.
func checkChains(t *testing.T, what string, root *Node) {
	t.Helper()
	arrays := make(map[*byte]bool)
	leaves := 0
	Walk(root, func(n *Node) bool {
		key := unsafe.StringData(n.ID().Key())
		arrays[key] = true
		if k := n.Kids(); !k.Next() {
			leaves++
		} else if first := k.Node(); unsafe.StringData(first.ID().Key()) != key {
			t.Errorf("%s: %v does not hold its key in its first child %v's bytes", what, n.ID(), first.ID())
		}
		return true
	})
	if len(arrays) != leaves {
		t.Errorf("%s: %d key arrays for %d first-child chains", what, len(arrays), leaves)
	}
	if err := CheckPayload(root); err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

// TestFirstChildChainSharesOneKey: a parse, an inserted forest and
// ApplyOrds each give a first-child chain one key string, which every node
// on the chain holds a prefix of — and the restored keys are the recorded
// ones, byte for byte.
func TestFirstChildChainSharesOneKey(t *testing.T) {
	d := mustParse(t, chainDoc())
	checkChains(t, "a parse", d.Root)

	d.Snapshot()
	forest, err := ParseForest(`<n q="1"><o><s>u</s></o>v<o/></n><n/>`)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Root.ElementChildren()[1] // m, whose first child is text
	if _, _, err := d.ApplyInsertions([]Insertion{{Target: m, Trees: forest}, {Target: d.Root, Trees: forest[:1]}}); err != nil {
		t.Fatal(err)
	}
	checkChains(t, "an inserted forest", d.Root)

	// Deleting first children leaves ordinals a parse does not assign.
	w := d.Root.ElementChildren()[3]
	if _, _, err := d.ApplyDeleteBatch([]*Node{d.Root.ElementChildren()[0], w.ElementChildren()[0], w.ElementChildren()[1]}); err != nil {
		t.Fatal(err)
	}
	r := mustParse(t, d.String())
	if err := r.ApplyOrds(d.EncodeOrds()); err != nil {
		t.Fatal(err)
	}
	checkChains(t, "ApplyOrds", r.Root)
	var want []string
	Walk(d.Root, func(n *Node) bool { want = append(want, n.ID().Key()); return true })
	i := 0
	Walk(r.Root, func(n *Node) bool {
		if i < len(want) && n.ID().Key() != want[i] {
			t.Errorf("node %d restored as %v, recorded as %v", i, n.ID(), dewey.FromKey(want[i]))
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("restored %d nodes of %d", i, len(want))
	}
}

// TestChainKeysOutliveADeletedFirstChild: the string a chain's keys are
// prefixes of is the deepest member's key, and stays the survivors' when
// that member, or the chain below a survivor, is deleted and collected —
// in a document never published, which edits in place, and in one that
// copies its spine.
func TestChainKeysOutliveADeletedFirstChild(t *testing.T) {
	for _, published := range []bool{false, true} {
		d := mustParse(t, chainDoc())
		a := d.Root.ElementChildren()[0]
		b := a.ElementChildren()[0]
		text := b.ElementChildren()[0].ElementChildren()[0].Kids() // d's text, the chain's leaf
		text.Next()
		deep := len(text.Node().ID().Key())
		survivors := []*Node{d.Root, a, b}
		var keys []string
		for _, n := range survivors {
			keys = append(keys, strings.Clone(n.ID().Key()))
		}
		if published {
			d.Snapshot()
		}
		if _, err := d.ApplyDelete(text.Node()); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ApplyDelete(b.ElementChildren()[0]); err != nil { // c, and d with it
			t.Fatal(err)
		}
		text = Kids{}
		runtime.GC()
		runtime.GC()
		for range 1000 {
			_ = strings.Repeat("x", deep) // reuse what the collector freed
		}
		for i, n := range survivors {
			got := d.NodeByID(n.ID())
			if got == nil || got.ID().Key() != keys[i] || got.Label() != n.Label() {
				t.Fatalf("published %v: survivor %d lost its key: %v resolves to %v", published, i, n.ID(), got)
			}
		}
		if b := d.NodeByID(b.ID()); b.NumChildren() != 0 {
			t.Fatalf("published %v: b keeps %d children", published, b.NumChildren())
		}
		if err := CheckPayload(d.Root); err != nil {
			t.Fatalf("published %v: %v", published, err)
		}
	}
}
