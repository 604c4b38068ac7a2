package algebra

import (
	"math/rand"
	"testing"

	"xivm/internal/pattern"
)

func TestHolisticSimpleChain(t *testing.T) {
	d := mustDoc(t, fig12Doc)
	p := pattern.MustParse(`//a{ID}//c{ID}//b{ID}`)
	in := DocInputs(d, p)
	got := EvalPatternHolistic(p, in)
	want := EvalPattern(p, in, nil)
	SortTuples(got)
	SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("holistic %d vs binary %d", len(got), len(want))
	}
	for i := range got {
		if CompareTuples(got[i], want[i]) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestHolisticBranching(t *testing.T) {
	d := mustDoc(t, `<a><b><c/><d/></b><b><c/></b><d/></a>`)
	p := pattern.MustParse(`//a{ID}[//c{ID}]//d{ID}`)
	in := DocInputs(d, p)
	got := EvalPatternHolistic(p, in)
	want := EvalPattern(p, in, nil)
	SortTuples(got)
	SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("holistic %d vs binary %d", len(got), len(want))
	}
}

func TestHolisticChildEdges(t *testing.T) {
	d := mustDoc(t, `<a><b><a><b/></a></b></a>`)
	p := pattern.MustParse(`//a{ID}/b{ID}`)
	in := DocInputs(d, p)
	got := EvalPatternHolistic(p, in)
	want := EvalPattern(p, in, nil)
	if len(got) != len(want) {
		t.Fatalf("holistic %d vs binary %d", len(got), len(want))
	}
}

// TestHolisticMatchesBinaryRandom is the differential property over random
// documents and patterns.
func TestHolisticMatchesBinaryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		d := randomDoc(rng)
		p := randomPattern(rng)
		in := DocInputs(d, p)
		got := EvalPatternHolistic(p, in)
		want := EvalPattern(p, in, nil)
		SortTuples(got)
		SortTuples(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s: holistic %d vs binary %d over %s",
				trial, p, len(got), len(want), d)
		}
		for i := range got {
			if CompareTuples(got[i], want[i]) != 0 {
				t.Fatalf("trial %d: tuple %d differs for %s", trial, i, p)
			}
		}
	}
}

func TestHolisticEmptyInput(t *testing.T) {
	d := mustDoc(t, `<a><b/></a>`)
	p := pattern.MustParse(`//a{ID}//zzz{ID}`)
	if got := EvalPatternHolistic(p, DocInputs(d, p)); len(got) != 0 {
		t.Fatalf("expected no tuples, got %d", len(got))
	}
}
