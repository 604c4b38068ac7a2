package dewey

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Ord
		want int
	}{
		{Ord{1}, Ord{2}, -1},
		{Ord{2}, Ord{2}, 0},
		{Ord{3}, Ord{2}, 1},
		{Ord{2}, Ord{2, 1}, -1},
		{Ord{2, 1}, Ord{2}, 1},
		{Ord{2, 0, 5}, Ord{2, 1}, -1},
		{Ord{2, 0, 5}, Ord{2}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestOrdAtMonotone(t *testing.T) {
	for i := 0; i < 100; i++ {
		if OrdAt(i).Compare(OrdAt(i+1)) >= 0 {
			t.Fatalf("OrdAt(%d) not < OrdAt(%d)", i, i+1)
		}
	}
}

func TestBetweenEndpoints(t *testing.T) {
	first := Between(nil, nil)
	if len(first) == 0 {
		t.Fatal("Between(nil,nil) empty")
	}
	lo := Between(nil, first)
	if lo.Compare(first) >= 0 {
		t.Fatalf("Between(nil,%v)=%v not strictly below", first, lo)
	}
	hi := Between(first, nil)
	if hi.Compare(first) <= 0 {
		t.Fatalf("Between(%v,nil)=%v not strictly above", first, hi)
	}
}

func TestBetweenAdjacent(t *testing.T) {
	a, b := Ord{5}, Ord{6}
	m := Between(a, b)
	if m.Compare(a) <= 0 || m.Compare(b) >= 0 {
		t.Fatalf("Between(%v,%v)=%v out of range", a, b, m)
	}
}

func TestBetweenPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a >= b")
		}
	}()
	Between(Ord{7}, Ord{6})
}

// TestBetweenStress repeatedly inserts at random positions in an ordered
// list and checks that the order stays strict and no existing ordinal ever
// changes (the no-relabeling property).
func TestBetweenStress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ords := []Ord{Between(nil, nil)}
	for i := 0; i < 3000; i++ {
		pos := rng.Intn(len(ords) + 1)
		var lo, hi Ord
		if pos > 0 {
			lo = ords[pos-1]
		}
		if pos < len(ords) {
			hi = ords[pos]
		}
		mid := Between(lo, hi)
		if lo != nil && mid.Compare(lo) <= 0 {
			t.Fatalf("step %d: %v not > %v", i, mid, lo)
		}
		if hi != nil && mid.Compare(hi) >= 0 {
			t.Fatalf("step %d: %v not < %v", i, mid, hi)
		}
		ords = append(ords[:pos], append([]Ord{mid}, ords[pos:]...)...)
	}
	if !sort.SliceIsSorted(ords, func(i, j int) bool { return ords[i].Compare(ords[j]) < 0 }) {
		t.Fatal("list not sorted after random insertions")
	}
}

func TestBetweenFrontInsertions(t *testing.T) {
	// Repeated front insertion must keep producing strictly smaller ordinals.
	cur := Between(nil, nil)
	for i := 0; i < 200; i++ {
		next := Between(nil, cur)
		if next.Compare(cur) >= 0 {
			t.Fatalf("front insertion %d: %v not < %v", i, next, cur)
		}
		cur = next
	}
}

func buildSampleID() ID {
	// a1 / c1 / b1 as in the paper's Figure 2.
	a := NewRoot("a")
	c := a.Child("c", OrdAt(0))
	return c.Child("b", OrdAt(0))
}

func TestIDStructure(t *testing.T) {
	b := buildSampleID()
	if b.Level() != 3 || b.Label() != "b" {
		t.Fatalf("level/label = %d/%q", b.Level(), b.Label())
	}
	if got := b.LabelPath(); len(got) != 3 || got[0] != "a" || got[1] != "c" || got[2] != "b" {
		t.Fatalf("LabelPath = %v", got)
	}
	c := b.Parent()
	if c.Label() != "c" || !c.IsParentOf(b) || !c.IsAncestorOf(b) {
		t.Fatal("parent relationships broken")
	}
	a := c.Parent()
	if !a.IsAncestorOf(b) || a.IsParentOf(b) {
		t.Fatal("ancestor relationships broken")
	}
	if a.Parent().IsNull() != true {
		t.Fatal("root parent should be null")
	}
}

func TestIDCompareDocumentOrder(t *testing.T) {
	a := NewRoot("a")
	c := a.Child("c", OrdAt(0))
	b1 := c.Child("b", OrdAt(0))
	f := a.Child("f", OrdAt(1))
	b2 := f.Child("b", OrdAt(0))
	order := []ID{a, c, b1, f, b2}
	for i := range order {
		for j := range order {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := order[i].Compare(order[j]); got != want {
				t.Errorf("Compare(%v,%v)=%d want %d", order[i], order[j], got, want)
			}
		}
	}
}

func TestHasAncestorLabeled(t *testing.T) {
	b := buildSampleID()
	if !b.HasAncestorLabeled("a") || !b.HasAncestorLabeled("c") {
		t.Fatal("missing ancestors")
	}
	if b.HasAncestorLabeled("b") {
		t.Fatal("b is not its own ancestor")
	}
	if !b.SelfOrAncestorLabeled("b") {
		t.Fatal("SelfOrAncestorLabeled should include self")
	}
}

// decodesBack reports whether id's encoding — its key, copied out as bytes
// the way a file or a frame holds it — reads back with FromKey as id, and
// whether the steps read out of that are the ones that rebuild it.
func decodesBack(id ID) bool {
	got := FromKey(string([]byte(id.Key())))
	if !got.Equal(id) || got.Level() != id.Level() {
		return false
	}
	var rebuilt ID
	for i := 0; i < got.Level(); i++ {
		step := got.Step(i)
		rebuilt = rebuilt.Child(step.Label, step.Ord)
	}
	return rebuilt.Equal(id)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ids := []ID{
		NewRoot("site"),
		buildSampleID(),
		NewRoot("a").Child("long-label", Ord{1, 2, 3}).Child("x", Ord{Gap}),
	}
	for _, id := range ids {
		if !decodesBack(id) {
			t.Fatalf("round trip of %v through its key: got %v", id, FromKey(id.Key()))
		}
	}
}

func TestKeyInjective(t *testing.T) {
	a := NewRoot("a")
	ids := []ID{
		a,
		a.Child("b", OrdAt(0)),
		a.Child("b", OrdAt(1)),
		a.Child("bb", OrdAt(0)),
		a.Child("b", Ord{Gap, 1}),
		a.Child("b", OrdAt(0)).Child("c", OrdAt(0)),
	}
	seen := map[string]ID{}
	for _, id := range ids {
		k := id.Key()
		if other, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", id, other)
		}
		seen[k] = id
	}
}

// Property: Compare is antisymmetric and consistent with IsAncestorOf.
func TestCompareAncestorProperty(t *testing.T) {
	gen := func(seed int64) (ID, ID) {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ID {
			id := NewRoot("r")
			depth := 1 + rng.Intn(4)
			for i := 0; i < depth; i++ {
				id = id.Child(string(rune('a'+rng.Intn(3))), OrdAt(rng.Intn(3)))
			}
			return id
		}
		return mk(), mk()
	}
	f := func(seed int64) bool {
		x, y := gen(seed)
		if x.Compare(y) != -y.Compare(x) {
			return false
		}
		if x.IsAncestorOf(y) && x.Compare(y) != -1 {
			return false
		}
		if x.IsParentOf(y) && !x.IsAncestorOf(y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// LabelPath returns the labels along the root-to-node path.
func (id ID) LabelPath() []string {
	out := make([]string, 0, id.Level())
	for c := id.Cursor(); c.Next(); {
		out = append(out, c.Label())
	}
	return out
}

// IsAncestorOrSelf reports id == other or id ≺≺ other.
func (id ID) IsAncestorOrSelf(other ID) bool {
	return id.Equal(other) || id.IsAncestorOf(other)
}
