package pattern

import (
	"math/bits"
	"testing"
)

// v1 is the paper's Figure 6 view: //a{ID}[//b{ID}//c{ID}]//d{ID}.
const v1Src = `//a{ID}[//b{ID}//c{ID}]//d{ID}`

// v2 is the paper's Figure 7 view: //a{ID}[//b{ID}][//c{ID}]//d{ID}.
const v2Src = `//a{ID}[//b{ID}][//c{ID}]//d{ID}`

func TestParseAndString(t *testing.T) {
	p := MustParse(v1Src)
	if p.Size() != 4 {
		t.Fatalf("size %d", p.Size())
	}
	if got := p.String(); got != v1Src {
		t.Fatalf("String = %q want %q", got, v1Src)
	}
	labels := p.Labels()
	want := []string{"a", "b", "c", "d"}
	for i, l := range want {
		if labels[i] != l {
			t.Fatalf("labels = %v", labels)
		}
	}
	// Structure: a->b, b->c, a->d.
	if p.ParentIndex(1) != 0 || p.ParentIndex(2) != 1 || p.ParentIndex(3) != 0 {
		t.Fatalf("parents: %d %d %d", p.ParentIndex(1), p.ParentIndex(2), p.ParentIndex(3))
	}
	if p.ParentIndex(0) != -1 {
		t.Fatal("root parent should be -1")
	}
}

func TestParsePredicatesAndStores(t *testing.T) {
	p := MustParse(`//a{ID,val}[val="5"]/b{cont}`)
	if !p.Nodes[0].HasPred || p.Nodes[0].PredVal != "5" {
		t.Fatal("predicate lost")
	}
	if !p.Nodes[0].Store.Has(StoreID | StoreVal) {
		t.Fatal("stores lost")
	}
	if p.Nodes[1].Desc {
		t.Fatal("child edge should not be descendant")
	}
	if !p.Nodes[1].Store.Has(StoreCont) {
		t.Fatal("cont store lost")
	}
	reparsed := MustParse(p.String())
	if reparsed.String() != p.String() {
		t.Fatalf("unstable: %q vs %q", p.String(), reparsed.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "//a{bogus}", "//a[//b", "//a{ID", `//a[val="x"`, "//a trailing"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	p := MustParse(v1Src)
	if !p.IsAncestor(0, 2) || !p.IsAncestor(1, 2) || !p.IsAncestor(0, 3) {
		t.Fatal("missing ancestry")
	}
	if p.IsAncestor(1, 3) || p.IsAncestor(2, 1) || p.IsAncestor(3, 0) {
		t.Fatal("false ancestry")
	}
}

func TestSnowcapsV1(t *testing.T) {
	// Figure 6: the snowcaps of //a[//b//c]//d are a, ab, ad, abc, abd,
	// acd is NOT one (c requires b), abcd is. Expected set:
	// {a}, {a,b}, {a,d}, {a,b,c}, {a,b,d}, {a,b,c,d} — 6 snowcaps.
	p := MustParse(v1Src)
	sc := p.Snowcaps()
	if len(sc) != 6 {
		t.Fatalf("got %d snowcaps: %b", len(sc), sc)
	}
	want := map[uint64]bool{
		1:               true, // a
		1 | 1<<1:        true, // ab
		1 | 1<<3:        true, // ad
		1 | 1<<1 | 1<<2: true, // abc
		1 | 1<<1 | 1<<3: true, // abd
		p.FullMask():    true, // abcd
	}
	for _, m := range sc {
		if !want[m] {
			t.Fatalf("unexpected snowcap %b", m)
		}
	}
	// Popcount-sorted.
	for i := 1; i < len(sc); i++ {
		if bits.OnesCount64(sc[i-1]) > bits.OnesCount64(sc[i]) {
			t.Fatal("not sorted by size")
		}
	}
}

func TestSnowcapsV2(t *testing.T) {
	// Figure 7: //a[//b][//c]//d — every node except the root hangs off a,
	// so snowcaps are all subsets containing a: 8 snowcaps.
	p := MustParse(v2Src)
	if got := len(p.Snowcaps()); got != 8 {
		t.Fatalf("got %d snowcaps", got)
	}
}

func TestIsSnowcapAndUpClosed(t *testing.T) {
	p := MustParse(v1Src)
	if p.IsSnowcap(0) {
		t.Fatal("empty set is not a snowcap")
	}
	if !p.IsUpClosed(0) {
		t.Fatal("empty set is upward-closed")
	}
	if p.IsSnowcap(1 << 2) { // {c} without b
		t.Fatal("{c} is not a snowcap")
	}
	if p.IsSnowcap(1 | 1<<2) { // {a,c} without b
		t.Fatal("{a,c} is not a snowcap")
	}
	if !p.IsSnowcap(p.FullMask()) {
		t.Fatal("full pattern is a snowcap")
	}
	if p.IsSnowcap(p.FullMask() << 1) {
		t.Fatal("mask outside pattern accepted")
	}
}

// TestSnowcapChain pins the chain shape the lattice maintains with
// Proposition 3.13's recurrence: one snowcap per level, starting at the
// root, each adding one node whose pattern parent the level before holds,
// and ending at the full pattern.
func TestSnowcapChain(t *testing.T) {
	for _, src := range []string{
		`//a{ID}`,
		`/a{ID}/b{ID}/c{ID}/d{ID}/e{ID}/f{ID}/g{ID}`,
		v1Src,
		`//a{ID}[//b{ID}][//c{ID}[val="5"]][//d{ID}]//e{ID,val}`,
		`//a{ID}[/b{ID}[//c{ID}]//d{ID}][//e{ID}/f{ID}[/g{ID}]/h{ID}]//i{ID}[//j{ID}]//k{ID}/l{ID}`, // 12 nodes
	} {
		p := MustParse(src)
		chain := p.SnowcapChain()
		if len(chain) != p.Size() || chain[0] != 1 {
			t.Fatalf("%s: chain %b, want %d levels from the root", src, chain, p.Size())
		}
		for i := 1; i < len(chain); i++ {
			added := chain[i] &^ chain[i-1]
			if chain[i-1]&^chain[i] != 0 || bits.OnesCount64(added) != 1 {
				t.Fatalf("%s: chain[%d]=%b does not add one node to %b", src, i, chain[i], chain[i-1])
			}
			if !MaskContains(chain[i-1], p.ParentIndex(bits.TrailingZeros64(added))) {
				t.Fatalf("%s: chain[%d] adds a node whose parent is not in the level before", src, i)
			}
			if !p.IsSnowcap(chain[i]) {
				t.Fatalf("%s: chain[%d]=%b not a snowcap", src, i, chain[i])
			}
		}
		if chain[len(chain)-1] != p.FullMask() {
			t.Fatalf("%s: chain must end at the full pattern", src)
		}
	}
}

func TestSubPattern(t *testing.T) {
	p := MustParse(v1Src)
	sub, orig := p.SubPattern(1 | 1<<1 | 1<<2) // abc
	if sub.Size() != 3 {
		t.Fatalf("sub size %d", sub.Size())
	}
	if got := sub.String(); got != "//a{ID}//b{ID}//c{ID}" {
		t.Fatalf("sub = %q", got)
	}
	if len(orig) != 3 || orig[0] != 0 || orig[1] != 1 || orig[2] != 2 {
		t.Fatalf("orig = %v", orig)
	}
	sub2, orig2 := p.SubPattern(1 | 1<<3) // ad
	if sub2.String() != "//a{ID}//d{ID}" || orig2[1] != 3 {
		t.Fatalf("sub2 = %q orig2=%v", sub2.String(), orig2)
	}
}

func TestCloneWithStoreTransform(t *testing.T) {
	p := MustParse(v1Src)
	q := p.Clone(func(i int, s Store) Store {
		if i == 3 {
			return s | StoreCont
		}
		return s
	})
	if !q.Nodes[3].Store.Has(StoreCont) {
		t.Fatal("transform not applied")
	}
	if p.Nodes[3].Store.Has(StoreCont) {
		t.Fatal("original mutated")
	}
}

func TestContValIndexes(t *testing.T) {
	p := MustParse(`//a{ID}/b{ID,val}//c{ID,cont}`)
	got := p.ContValIndexes()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ContValIndexes = %v", got)
	}
	if n := len(MustParse(`//a{ID}`).ContValIndexes()); n != 0 {
		t.Fatalf("expected empty cvn, got %d", n)
	}
}

func TestMaskHelpers(t *testing.T) {
	m := uint64(1 | 1<<3 | 1<<5)
	if !MaskContains(m, 3) || MaskContains(m, 2) {
		t.Fatal("MaskContains wrong")
	}
	idx := MaskIndexes(m)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 3 || idx[2] != 5 {
		t.Fatalf("MaskIndexes = %v", idx)
	}
}

func TestTooManyNodes(t *testing.T) {
	root := &Node{Label: "r"}
	cur := root
	for i := 0; i < 64; i++ {
		c := &Node{Label: "x", Desc: true}
		cur.Children = []*Node{c}
		cur = c
	}
	if _, err := New(root); err == nil {
		t.Fatal("expected 64-node limit error")
	}
}

// Labels returns the labels of all nodes in preorder.
func (p *Pattern) Labels() []string {
	out := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Label
	}
	return out
}

// Snowcaps enumerates all snowcap masks of p, in increasing popcount order
// (so smaller snowcaps come first, and the full pattern comes last).
func (p *Pattern) Snowcaps() []uint64 {
	full := p.FullMask()
	var out []uint64
	for mask := uint64(1); mask <= full; mask++ {
		if p.IsSnowcap(mask) {
			out = append(out, mask)
		}
	}
	sortByPopcount(out)
	return out
}

func sortByPopcount(masks []uint64) {
	// Insertion sort by (popcount, value): lattice sizes are tiny.
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0; j-- {
			a, b := masks[j-1], masks[j]
			ca, cb := bits.OnesCount64(a), bits.OnesCount64(b)
			if ca < cb || (ca == cb && a <= b) {
				break
			}
			masks[j-1], masks[j] = b, a
		}
	}
}
