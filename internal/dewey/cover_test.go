package dewey

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoverContains(t *testing.T) {
	a := NewRoot("a")
	c := a.Child("c", OrdAt(0))
	b1 := c.Child("b", OrdAt(0))
	f := a.Child("f", OrdAt(1))
	b2 := f.Child("b", OrdAt(0))

	cover := NewCover([]ID{c})
	cases := []struct {
		id   ID
		want bool
	}{
		{c, true},   // the root itself
		{b1, true},  // inside
		{a, false},  // ancestor of the root
		{f, false},  // sibling subtree
		{b2, false}, // inside sibling
	}
	for i, tc := range cases {
		if got := cover.Contains(tc.id); got != tc.want {
			t.Errorf("case %d: Contains(%v)=%v want %v", i, tc.id, got, tc.want)
		}
	}
	if cover.Len() != 1 {
		t.Errorf("Len = %d", cover.Len())
	}
}

func TestCoverEmptyAndMulti(t *testing.T) {
	a := NewRoot("a")
	x := a.Child("x", OrdAt(0))
	y := a.Child("y", OrdAt(1))
	empty := NewCover(nil)
	if empty.Contains(x) || empty.Len() != 0 {
		t.Fatal("empty cover misbehaves")
	}
	multi := NewCover([]ID{x, y})
	if !multi.Contains(x) || !multi.Contains(y) || multi.Contains(a) {
		t.Fatal("multi-root cover misbehaves")
	}
	// Nested roots are harmless.
	xc := x.Child("c", OrdAt(0))
	nested := NewCover([]ID{x, xc})
	if !nested.Contains(xc.Child("d", OrdAt(0))) {
		t.Fatal("nested cover misses deep node")
	}
}

// TestCoverMatchesBruteForce: cover membership equals the obvious
// any-root-is-ancestor-or-self check on random trees.
func TestCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random set of IDs sharing a root.
		var ids []ID
		root := NewRoot("r")
		ids = append(ids, root)
		for i := 0; i < 20; i++ {
			base := ids[rng.Intn(len(ids))]
			ids = append(ids, base.Child(string(rune('a'+rng.Intn(3))), OrdAt(rng.Intn(4))))
		}
		var roots []ID
		for _, id := range ids {
			if rng.Intn(4) == 0 && id.Level() > 1 {
				roots = append(roots, id)
			}
		}
		cover := NewCover(roots)
		for _, id := range ids {
			want := false
			for _, r := range roots {
				if r.IsAncestorOrSelf(id) {
					want = true
					break
				}
			}
			if cover.Contains(id) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode/Decode round-trips arbitrary randomly-built IDs.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		id := NewRoot("r")
		for i := 0; i < rng.Intn(6); i++ {
			ord := Ord{}
			for j := 0; j <= rng.Intn(3); j++ {
				ord = append(ord, uint64(rng.Intn(1<<30)))
			}
			id = id.Child(string(rune('a'+rng.Intn(26))), ord)
		}
		var d Dict
		buf := id.Encode(&d, nil)
		got, n, err := Decode(&d, buf)
		return err == nil && n == len(buf) && got.Equal(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
