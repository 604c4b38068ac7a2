package dewey

import (
	"strings"
	"testing"
)

func TestStringRendering(t *testing.T) {
	if got := (ID{}).String(); got != "ε" {
		t.Fatalf("null ID = %q", got)
	}
	a := NewRoot("a")
	c := a.Child("c", OrdAt(0))
	b := c.Child("b", OrdAt(1))
	if got := b.String(); got != "a1.c1.b2" {
		t.Fatalf("String = %q", got)
	}
	// Fractional ordinals render with their components.
	mid := a.Child("x", Between(OrdAt(0), OrdAt(1)))
	s := mid.String()
	if !strings.HasPrefix(s, "a1.x1") {
		t.Fatalf("mid = %q", s)
	}
	// Multi-component ordinal from adjacent insertion.
	tight := a.Child("y", Between(Ord{5}, Ord{6}))
	if got := tight.String(); !strings.Contains(got, "_") && !strings.Contains(got, "+") {
		t.Fatalf("multi-component ordinal rendering = %q", got)
	}
	// AppendString extends its destination and agrees with String.
	for _, id := range []ID{{}, a, b, mid, tight} {
		if got := string(id.AppendString([]byte("x="))); got != "x="+id.String() {
			t.Fatalf("AppendString = %q, String = %q", got, id.String())
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.AppendString(make([]byte, 0, 64)) }); n != 0 {
		t.Fatalf("AppendString into a sized buffer allocates %v times", n)
	}
}

func TestStepAccessorsAndClone(t *testing.T) {
	a := NewRoot("a")
	b := a.Child("b", OrdAt(2))
	st := b.Step(1)
	if st.Label != "b" || !st.Ord.Equal(OrdAt(2)) {
		t.Fatalf("Step = %+v", st)
	}
	if b.Label() != "b" || (ID{}).Label() != "" {
		t.Fatal("Label wrong")
	}
	o := Ord{1, 2}
	c := o.Clone()
	c[0] = 99
	if o[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if Ord(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestDictLen(t *testing.T) {
	var d Dict
	if d.Len() != 0 {
		t.Fatal("fresh dict non-empty")
	}
	d.Code("x")
	d.Code("y")
	d.Code("x")
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if _, err := d.Label(5); err == nil {
		t.Fatal("out-of-range code accepted")
	}
}

func TestAfterLastOverflowPath(t *testing.T) {
	// Near the top of the uint64 range, afterLast must extend instead of
	// overflowing.
	huge := Ord{^uint64(0) - 5}
	next := Between(huge, nil)
	if next.Compare(huge) <= 0 {
		t.Fatalf("afterLast(%v) = %v not greater", huge, next)
	}
}
