package dewey

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// built is an ID together with the steps it was built from. The steps are
// the oracle: nothing below reads them back out of the ID under test.
type built struct {
	id    ID
	steps []Step
}

func builtRoot(label string) built {
	return built{NewRoot(label), []Step{{Label: label, Ord: Ord{Gap}}}}
}

func (b built) child(label string, ord Ord) built {
	steps := append(b.steps[:len(b.steps):len(b.steps)], Step{Label: label, Ord: ord})
	return built{b.id.Child(label, ord), steps}
}

// at rebuilds the ancestor at the given level (1 = root, 0 = null) from the
// steps, not from the ID.
func (b built) at(level int) built {
	if level == 0 {
		return built{}
	}
	a := builtRoot(b.steps[0].Label)
	for _, s := range b.steps[1:level] {
		a = a.child(s.Label, s.Ord)
	}
	return a
}

// stepwiseCompare is the reference document-order comparison the key must be
// order-isomorphic to: ordinal first, level by level, with step-prefixes
// (ancestors) first. Where the steps first differ only in their labels —
// ordinal twins — the order is unspecified: it returns 0 and the level
// (1-based) of the twins instead; twin is 0 otherwise.
func stepwiseCompare(a, b []Step) (c, twin int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Ord.Compare(b[i].Ord); c != 0 {
			return c, 0
		}
		if a[i].Label != b[i].Label {
			return 0, i + 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1, 0
	case len(a) > len(b):
		return 1, 0
	}
	return 0, 0
}

// stepwiseAncestor is the reference ≺≺ check.
func stepwiseAncestor(a, b []Step) bool {
	if len(a) == 0 || len(a) >= len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || !a[i].Ord.Equal(b[i].Ord) {
			return false
		}
	}
	return true
}

// keyLabels deliberately includes empty, 0x00-bearing, 0x01/0xFF-bearing and
// prefix-of-each-other labels, and labels too long for the label table —
// which frames spell out — among them prefix pairs of equal and unequal
// length bytes.
var keyLabels = []string{
	"a", "b", "ab", "", "person", "#text", "@id", "~gold",
	"a\x00b", "a\x00", "\x00", "\x01", "a\x01", "\xff", "a\xffz", "日本",
	strings.Repeat("L", maxLabelLen+1), strings.Repeat("L", maxLabelLen+2),
	strings.Repeat("L", maxLabelLen) + "\x00", strings.Repeat("\xff", 1024),
}

// randOrdFor returns adversarial ordinals: single and multi component,
// boundary values, and vectors that are strict prefixes of one another.
func randOrdFor(r *rand.Rand) Ord {
	vals := []uint64{0, 1, 2, Gap - 1, Gap, Gap + 1, 255, 256, 1 << 16, 1 << 32, ^uint64(0)}
	n := 1 + r.Intn(3)
	o := make(Ord, n)
	for i := range o {
		o[i] = vals[r.Intn(len(vals))]
	}
	return o
}

// randIDKey builds a random ID, sometimes branching off a prefix of a
// previously built one so that ancestor/sibling relations actually occur.
func randIDKey(r *rand.Rand, prev built) built {
	var b built
	if len(prev.steps) > 0 && r.Intn(2) == 0 {
		b = prev.at(1 + r.Intn(len(prev.steps)))
	} else {
		b = builtRoot(keyLabels[r.Intn(len(keyLabels))])
	}
	for depth := r.Intn(5); depth > 0; depth-- {
		b = b.child(keyLabels[r.Intn(len(keyLabels))], randOrdFor(r))
	}
	return b
}

func checkKeyProperties(t *testing.T, x, y built) {
	t.Helper()
	a, b := x.id, y.id
	want, twin := stepwiseCompare(x.steps, y.steps)
	if twin > 0 {
		// Ordinal twins and everything under them: unequal, in the order of
		// the twins' own keys, whichever that is.
		want = bytes.Compare([]byte(x.at(twin).id.Key()), []byte(y.at(twin).id.Key()))
		if want == 0 {
			t.Fatalf("ordinal twins %v / %v have one key %q", x.at(twin).id, y.at(twin).id, x.at(twin).id.Key())
		}
	}
	want = sign(want)
	if got := sign(bytes.Compare([]byte(a.Key()), []byte(b.Key()))); got != want {
		t.Fatalf("key order mismatch: bytes.Compare=%d stepwise=%d for %v / %v (%q / %q)",
			got, want, a, b, a.Key(), b.Key())
	}
	if got := sign(a.Compare(b)); got != want {
		t.Fatalf("Compare mismatch: %d vs stepwise %d for %v / %v", got, want, a, b)
	}
	// Injectivity: equal keys must mean structurally identical IDs.
	if a.Equal(b) != (want == 0) || (a.Key() == b.Key()) != (want == 0) {
		t.Fatalf("Equal/key identity mismatch for %v / %v", a, b)
	}
	prefix := !a.IsNull() && len(a.Key()) < len(b.Key()) && strings.HasPrefix(b.Key(), a.Key())
	anc := stepwiseAncestor(x.steps, y.steps)
	if anc != prefix || anc != a.IsAncestorOf(b) {
		t.Fatalf("ancestor mismatch: stepwise=%v prefix=%v IsAncestorOf=%v for %v / %v",
			anc, prefix, a.IsAncestorOf(b), a, b)
	}
	if got, want := a.IsParentOf(b), anc && len(x.steps)+1 == len(y.steps); got != want {
		t.Fatalf("IsParentOf=%v want %v for %v / %v", got, want, a, b)
	}
}

// sameStep compares a decoded step to the one it was built from; a nil and
// an empty ordinal are the same (symbolic) ordinal.
func sameStep(got, want Step) bool {
	return got.Label == want.Label && len(got.Ord) == len(want.Ord) && got.Ord.Equal(want.Ord)
}

// checkDecodes asserts that everything read back out of b.id — by the ID
// accessors, by a Cursor, and after an Encode/Decode round trip — is what it
// was built from.
func checkDecodes(t *testing.T, b built) {
	t.Helper()
	var d Dict
	dec, n, err := Decode(&d, b.id.Encode(&d, nil))
	if err != nil || n == 0 || !dec.Equal(b.id) {
		t.Fatalf("Decode(Encode(%v)) = %v, %d, %v", b.id, dec, n, err)
	}
	for _, id := range []ID{b.id, dec} {
		if id.Level() != len(b.steps) || id.IsNull() != (len(b.steps) == 0) {
			t.Fatalf("Level=%d IsNull=%v, built from %d steps", id.Level(), id.IsNull(), len(b.steps))
		}
		labels := id.LabelPath()
		if len(labels) != len(b.steps) {
			t.Fatalf("LabelPath=%q for %d steps", labels, len(b.steps))
		}
		c := id.Cursor()
		var anc ID // the ancestor at level i+1, rebuilt step by step
		for i, want := range b.steps {
			anc = anc.Child(want.Label, want.Ord)
			if !c.Next() {
				t.Fatalf("cursor ended at step %d of %d", i, len(b.steps))
			}
			if !sameStep(id.Step(i), want) || !sameStep(c.Step(), want) || c.Label() != want.Label || labels[i] != want.Label {
				t.Fatalf("step %d: Step=%+v cursor=%+v LabelPath=%q, built from %+v", i, id.Step(i), c.Step(), labels[i], want)
			}
			if c.Key() != anc.Key() {
				t.Fatalf("level %d prefix: cursor %q want %q", i+1, c.Key(), anc.Key())
			}
			last := i == len(b.steps)-1
			if c.Last() != last || anc.IsParentOf(id) != (i == len(b.steps)-2) || anc.IsAncestorOf(id) == last {
				t.Fatalf("level %d of %d: Last=%v IsParentOf=%v IsAncestorOf=%v", i+1, len(b.steps), c.Last(), anc.IsParentOf(id), anc.IsAncestorOf(id))
			}
			if id.HasAncestorLabeled(want.Label) != containsLabel(b.steps[:len(b.steps)-1], want.Label) || !id.SelfOrAncestorLabeled(want.Label) {
				t.Fatalf("ancestor-label checks wrong for %q in %v", want.Label, id)
			}
		}
		if c.Next() {
			t.Fatalf("cursor ran past the %d steps of %v", len(b.steps), id)
		}
		if want := b.at(max(len(b.steps)-1, 0)).id; !id.Parent().Equal(want) {
			t.Fatalf("Parent(%v)=%v want %v", id, id.Parent(), want)
		}
		if n := len(b.steps); n > 0 && id.Label() != b.steps[n-1].Label {
			t.Fatalf("Label=%q want %q", id.Label(), b.steps[n-1].Label)
		}
	}
}

func containsLabel(steps []Step, label string) bool {
	for _, s := range steps {
		if s.Label == label {
			return true
		}
	}
	return false
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func TestKeyOrderIsomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var prev built
	for i := 0; i < 5000; i++ {
		a := randIDKey(r, prev)
		b := randIDKey(r, a)
		prev = b
		checkKeyProperties(t, a, b)
		checkKeyProperties(t, b, a)
		checkKeyProperties(t, a, a)
	}
}

// TestIDDecodesToItsSteps: the key is the only thing an ID holds, so every
// accessor is a parse of it; the parse must return what went in.
func TestIDDecodesToItsSteps(t *testing.T) {
	if unsafe.Sizeof(ID{}) != unsafe.Sizeof("") {
		t.Fatalf("an ID is %d bytes, a string %d: it holds something beside its key", unsafe.Sizeof(ID{}), unsafe.Sizeof(""))
	}
	checkDecodes(t, built{})
	r := rand.New(rand.NewSource(13))
	var prev built
	for i := 0; i < 3000; i++ {
		prev = randIDKey(r, prev)
		checkDecodes(t, prev)
	}
	// Symbolic steps (no ordinal) are how pulopt addresses nodes of a
	// not-yet-materialized tree.
	checkDecodes(t, builtRoot("a").child("b", nil).child("\x00", Ord{}).child("", Ord{0}))
}

// TestKeyAtPanicsOutOfRange: the level lookup behind Step rejects a level
// the ID does not have.
func TestKeyAtPanicsOutOfRange(t *testing.T) {
	id := NewRoot("a").Child("b", OrdAt(0))
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, i := range []int{2, -1} {
		mustPanic("Step", func() { id.Step(i) })
	}
	mustPanic("null Step", func() { ID{}.Step(0) })
}

func TestNullIDKey(t *testing.T) {
	var null ID
	if null.Key() != "" {
		t.Fatalf("null key = %q, want empty", null.Key())
	}
	root := NewRoot("a")
	if !(null.Compare(root) < 0) {
		t.Fatal("null must compare before every real ID")
	}
	if null.IsAncestorOf(root) || null.IsParentOf(root) {
		t.Fatal("null must not be an ancestor of anything")
	}
}

// FuzzKeyOrder drives the same properties from fuzzed build programs: each
// byte pair appends one child step (label index, ordinal recipe), and a
// split byte decides where the second ID branches off the first.
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0x01, 0x02}, byte(0))
	f.Add([]byte{0x10, 0x21, 0x32}, []byte{0x10, 0x21}, byte(2))
	f.Add([]byte{0xff, 0x00, 0x7f}, []byte{0xfe, 0x01}, byte(1))
	f.Fuzz(func(t *testing.T, pa, pb []byte, split byte) {
		build := func(b built, prog []byte) built {
			if len(b.steps) == 0 {
				if len(prog) == 0 {
					return builtRoot(keyLabels[0])
				}
				b = builtRoot(keyLabels[int(prog[0])%len(keyLabels)])
				prog = prog[1:]
			}
			for _, pb := range prog {
				label := keyLabels[int(pb>>4)%len(keyLabels)]
				ord := Ord{uint64(pb&0x0f) * 3}
				if pb&0x08 != 0 {
					ord = append(ord, uint64(pb>>2))
				}
				b = b.child(label, ord)
			}
			return b
		}
		// Depth is bounded: the checks are quadratic in it.
		a := build(built{}, pa[:min(len(pa), 64)])
		pb = pb[:min(len(pb), 64)]
		b := build(a.at(int(split)%(len(a.steps)+1)), pb)
		checkKeyProperties(t, a, b)
		checkKeyProperties(t, b, a)
		checkDecodes(t, a)
		checkDecodes(t, b)
	})
}
