package dewey

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// wide is an element big enough that a chunk holds only eight of them, so a
// few hundred edits split and join chunks many times over.
type wide struct {
	k   int
	v   int
	pad [30]uint64
}

func cmpWide(a, b wide) int { return a.k - b.k }
func cmpInt(a, b int) int   { return a - b }

// checkRun holds a run to its documented invariants and to the model.
func checkRun[T any](t *testing.T, r *Run[T], model []T, same func(a, b T) bool) {
	t.Helper()
	full := chunkLen[T]()
	if r.Len() != len(model) || r.Chunks().Len() != len(model) {
		t.Fatalf("Len() = %d, chunks hold %d, model %d", r.Len(), r.Chunks().Len(), len(model))
	}
	if len(r.mine) != len(r.dir) {
		t.Fatalf("%d ownership marks for %d chunks", len(r.mine), len(r.dir))
	}
	for i, c := range r.dir {
		if len(c) == 0 || len(c) > full || cap(c) > full {
			t.Fatalf("chunk %d: len %d cap %d, bound %d", i, len(c), cap(c), full)
		}
		if i > 0 && len(r.dir[i-1])+len(c) <= full/2 {
			t.Fatalf("chunks %d and %d hold %d+%d: they should have been joined", i-1, i, len(r.dir[i-1]), len(c))
		}
	}
	got := r.Chunks().AppendTo(nil)
	for i := range got {
		if !same(got[i], model[i]) {
			t.Fatalf("element %d = %v, model %v", i, got[i], model[i])
		}
		if i > 0 && r.cmp(got[i-1], got[i]) >= 0 {
			t.Fatalf("elements %d and %d out of order", i-1, i)
		}
	}
}

// TestRunMatchesSortedSlice drives a run and a plain sorted slice through
// the same random inserts, overwrites, deletes, block cuts, in-order batches
// and freezes. After every step the run must hold the model's elements and
// its own invariants, and every directory frozen so far what it held when
// it was frozen.
func TestRunMatchesSortedSlice(t *testing.T) {
	same := func(a, b wide) bool { return a.k == b.k && a.v == b.v }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRun(cmpWide)
		var model []wide
		type held struct {
			cs   Chunks[wide]
			want []wide
		}
		var frozen []held
		put := func(w wide) {
			i, found := slices.BinarySearchFunc(model, w, cmpWide)
			if found {
				model[i] = w
			} else {
				model = slices.Insert(model, i, w)
			}
			if fresh := r.Put(w); fresh == found {
				t.Fatalf("seed %d: Put(%d) reported new=%v, model found=%v", seed, w.k, fresh, found)
			}
		}
		for step := 0; step < 3000; step++ {
			k := rng.Intn(400)
			switch op := rng.Intn(10); {
			case op < 4:
				put(wide{k: k, v: step})
			case op < 6:
				i, found := slices.BinarySearchFunc(model, wide{k: k}, cmpWide)
				if found {
					model = slices.Delete(model, i, i+1)
				}
				if r.Delete(wide{k: k}) != found {
					t.Fatalf("seed %d step %d: Delete(%d) disagrees with the model", seed, step, k)
				}
			case op < 7:
				hi := k + rng.Intn(60)
				lo, _ := slices.BinarySearchFunc(model, wide{k: k}, cmpWide)
				end, _ := slices.BinarySearchFunc(model, wide{k: hi}, cmpWide)
				model = slices.Delete(model, lo, end)
				if got := r.Cut(wide{k: k}, func(w wide) bool { return w.k < hi }); got != end-lo {
					t.Fatalf("seed %d step %d: Cut [%d,%d) removed %d, model %d", seed, step, k, hi, got, end-lo)
				}
			case op < 8:
				for n := rng.Intn(30); n > 0; n-- {
					put(wide{k: k, v: step})
					k += 1 + rng.Intn(3)
				}
			case op < 9:
				w, found := r.Get(wide{k: k})
				i, want := slices.BinarySearchFunc(model, wide{k: k}, cmpWide)
				if found != want || (found && !same(w, model[i])) {
					t.Fatalf("seed %d step %d: Get(%d) = %v %v", seed, step, k, w, found)
				}
			default:
				cs, moved := r.Freeze()
				if n := len(frozen); n > 0 && !moved && (len(cs) != len(frozen[n-1].cs) || (len(cs) > 0 && &cs[0] != &frozen[n-1].cs[0])) {
					t.Fatalf("seed %d step %d: an unmoved run froze to a new directory", seed, step)
				}
				frozen = append(frozen, held{cs, slices.Clone(model)})
			}
			checkRun(t, &r, model, same)
		}
		for i, h := range frozen {
			if got := h.cs.AppendTo(nil); !slices.EqualFunc(got, h.want, same) {
				t.Fatalf("seed %d: frozen directory %d changed under later edits", seed, i)
			}
		}
	}
}

// TestRunSplitsAndJoinsAtItsBounds pins the two size bounds: a chunk splits
// on the insert that would take it past chunkLen and not before, and two
// neighbours are joined by the delete that lets them fit in half a chunk
// and not before.
func TestRunSplitsAndJoinsAtItsBounds(t *testing.T) {
	full := chunkLen[int]()
	r := NewRun(cmpInt)
	for i := 0; i < full; i++ {
		r.Put(2 * i)
	}
	if len(r.dir) != 1 || len(r.dir[0]) != full {
		t.Fatalf("%d elements lie in %d chunks", full, len(r.dir))
	}
	r.Put(1) // in the middle of a full chunk
	if len(r.dir) != 2 || len(r.dir[0])+len(r.dir[1]) != full+1 || len(r.dir[1]) != full/2 {
		t.Fatalf("after the overflowing insert: %d chunks", len(r.dir))
	}
	// Shrink both halves until they fit in half a chunk together.
	for len(r.dir) == 2 {
		a, b := len(r.dir[0]), len(r.dir[1])
		if a+b <= full/2 {
			t.Fatalf("chunks of %d and %d were left apart", a, b)
		}
		if a >= b {
			r.Delete(r.dir[0][0])
		} else {
			r.Delete(r.dir[1][0])
		}
	}
	if len(r.dir) != 1 || len(r.dir[0]) != full/2 {
		t.Fatalf("joined at %d elements in %d chunks, want %d in one", r.Len(), len(r.dir), full/2)
	}
}

// TestRunLoadsSortedInputByAppending: input in order costs one comparison
// an element, fills every chunk but the last to the brim, and never moves an
// element it has placed — what keeps loading a view or a label index linear.
func TestRunLoadsSortedInputByAppending(t *testing.T) {
	const n = 10_000
	compared := 0
	r := NewRun(func(a, b int) int { compared++; return a - b })
	first := map[int]*int{}
	for i := 0; i < n; i++ {
		r.Put(i)
		c := r.dir[len(r.dir)-1]
		first[i] = &c[len(c)-1]
	}
	if compared != n-1 {
		t.Errorf("%d comparisons to load %d elements in order, want %d", compared, n, n-1)
	}
	full := chunkLen[int]()
	if want := (n + full - 1) / full; len(r.dir) != want {
		t.Errorf("%d chunks, want %d", len(r.dir), want)
	}
	i := 0
	for ci, c := range r.dir {
		if ci < len(r.dir)-1 && len(c) != full {
			t.Errorf("chunk %d holds %d of %d", ci, len(c), full)
		}
		for k := range c {
			// The first chunk grows by reallocation; every later one is
			// allocated at its final size.
			if ci > 0 && first[i] != &c[k] {
				t.Fatalf("element %d moved after it was placed", i)
			}
			i++
		}
	}
}

// TestFrozenChunksStayBitIdentical is the aliasing oracle: a directory
// handed out by Freeze reads the same after a thousand later edits — among
// them appends that fit in a shared chunk's spare capacity, overwrites, and
// cuts and deletes that clear a chunk's tail — while readers scan it
// concurrently, so under -race an edit in place is a reported race as well
// as a mismatch.
func TestFrozenChunksStayBitIdentical(t *testing.T) {
	r := NewRun(cmpInt)
	for i := 0; i < 1000; i++ {
		r.Put(4 * i)
	}
	// A last chunk with spare capacity, which an append could write into.
	if c := r.dir[len(r.dir)-1]; cap(c) == len(c) {
		t.Fatal("fixture: the last chunk has no spare capacity")
	}
	cs, _ := r.Freeze()
	want := cs.AppendTo(nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := 0
				cs.Each(func(v int) bool {
					if v != want[i] {
						t.Errorf("frozen element %d reads %d, was %d", i, v, want[i])
						return false
					}
					i++
					return true
				})
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 1000; step++ {
		switch step % 5 {
		case 0:
			r.Put(4000 + step) // appends past the end, within the last chunk's capacity
		case 1:
			r.Put(4*rng.Intn(1000) + 1) // inserts mid-chunk
		case 2:
			r.Put(4 * rng.Intn(1000)) // overwrites
		case 3:
			r.Delete(4 * rng.Intn(1000))
		case 4:
			lo := 4 * rng.Intn(1000)
			r.Cut(lo, func(v int) bool { return v < lo+40 })
		}
		if step%100 == 99 {
			r.Freeze() // and thaw again
		}
	}
	close(stop)
	wg.Wait()
	if got := cs.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatal("the frozen directory changed under later edits")
	}
	for i, c := range cs {
		if len(c) == 0 {
			t.Fatalf("frozen chunk %d was emptied", i)
		}
	}
}
