package dewey

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// wide is an element big enough that a leaf holds only eight of them, so a
// few hundred edits split and join leaves and interior nodes many times
// over.
type wide struct {
	k   int
	v   int
	pad [30]uint64
}

func cmpWide(a, b wide) int { return a.k - b.k }
func cmpInt(a, b int) int   { return a - b }

func sameWide(a, b wide) bool { return a.k == b.k && a.v == b.v }

// checkRun holds a run to its documented invariants and to the model.
func checkRun[T any](t *testing.T, r *Run[T], model []T, same func(a, b T) bool) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("Len() = %d, model %d", r.Len(), len(model))
	}
	if root := r.root; root != nil {
		if root.kids != nil && len(root.kids) < 2 {
			t.Fatalf("an interior root with %d children", len(root.kids))
		}
		leafDepth := -1
		checkNode(t, r, root, 0, &leafDepth)
	}
	got := r.Chunks().AppendTo(nil)
	if len(got) != len(model) {
		t.Fatalf("the leaves hold %d elements, model %d", len(got), len(model))
	}
	for i := range got {
		if !same(got[i], model[i]) {
			t.Fatalf("element %d = %v, model %v", i, got[i], model[i])
		}
		if i > 0 && r.cmp(got[i-1], got[i]) >= 0 {
			t.Fatalf("elements %d and %d out of order", i-1, i)
		}
	}
}

// checkNode holds the subtree at nd, depth levels below the root, to the
// tree's invariants: fill bounds, equal leaf depth, subtree counts, and a
// writer's node only under a writer's parent.
func checkNode[T any](t *testing.T, r *Run[T], nd *node[T], depth int, leafDepth *int) {
	t.Helper()
	if nd.kids == nil {
		if *leafDepth < 0 {
			*leafDepth = depth
		} else if depth != *leafDepth {
			t.Fatalf("leaves at depths %d and %d", *leafDepth, depth)
		}
		full := leafLen[T]()
		if (len(nd.elems) == 0 && depth > 0) || len(nd.elems) > full || cap(nd.elems) > full {
			t.Fatalf("leaf at depth %d: len %d cap %d, bound %d", depth, len(nd.elems), cap(nd.elems), full)
		}
		if nd.n != len(nd.elems) {
			t.Fatalf("leaf at depth %d counts %d of %d elements", depth, nd.n, len(nd.elems))
		}
		return
	}
	if len(nd.kids) == 0 || len(nd.kids) > fanout || cap(nd.kids) > fanout {
		t.Fatalf("interior node at depth %d: %d children cap %d, bound %d", depth, len(nd.kids), cap(nd.kids), fanout)
	}
	n := 0
	for i, c := range nd.kids {
		if c.gen == r.gen && nd.gen != r.gen {
			t.Fatalf("a writer's node at depth %d under a parent readers may hold", depth+1)
		}
		checkNode(t, r, c, depth+1, leafDepth)
		n += c.n
		half := fanout / 2
		if c.kids == nil {
			half = leafLen[T]() / 2
		}
		if i > 0 && nd.kids[i-1].size()+c.size() <= half {
			t.Fatalf("siblings %d and %d at depth %d hold %d+%d: they should have been joined", i-1, i, depth+1, nd.kids[i-1].size(), c.size())
		}
	}
	if nd.n != n {
		t.Fatalf("interior node at depth %d counts %d of %d elements", depth, nd.n, n)
	}
}

// levels returns how many interior levels lie above the run's leaves.
func (r *Run[T]) levels() int {
	n := 0
	for nd := r.root; nd != nil && nd.kids != nil; nd = nd.kids[0] {
		n++
	}
	return n
}

// leaves returns the leaves' element slices, in order.
func leaves[T any](cs *Chunks[T]) [][]T {
	var out [][]T
	cs.EachLeaf(func(leaf []T) bool {
		out = append(out, leaf)
		return true
	})
	return out
}

// frozenRun is a root Freeze handed out and what it held then.
type frozenRun[T any] struct {
	cs   *Chunks[T]
	want []T
}

// TestRunMatchesSortedSlice drives a run and a plain sorted slice through
// the same random inserts, overwrites, deletes, block cuts, in-order batches
// and freezes. After every step the run must hold the model's elements and
// its own invariants, and every root frozen so far what it held when it was
// frozen.
func TestRunMatchesSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRun(cmpWide)
		var model []wide
		var frozen []frozenRun[wide]
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
				if found != want || (found && !sameWide(w, model[i])) {
					t.Fatalf("seed %d step %d: Get(%d) = %v %v", seed, step, k, w, found)
				}
			default:
				cs, moved := r.Freeze()
				if n := len(frozen); n > 0 && !moved && cs != frozen[n-1].cs {
					t.Fatalf("seed %d step %d: an unmoved run froze to a new root", seed, step)
				}
				frozen = append(frozen, frozenRun[wide]{cs, slices.Clone(model)})
			}
			checkRun(t, &r, model, sameWide)
		}
		for i, h := range frozen {
			if got := h.cs.AppendTo(nil); !slices.EqualFunc(got, h.want, sameWide) {
				t.Fatalf("seed %d: frozen root %d changed under later edits", seed, i)
			}
		}
	}
}

// FuzzRunMatchesSortedSlice is TestRunMatchesSortedSlice with the fuzzer
// choosing the edits: each byte pair is an op and a key — Put (an insert or
// an overwrite) of the key or of a batch from it on, Delete, Cut of a
// block, or Freeze — and after every op
// the run must match a sorted slice, hold its invariants, and every root
// frozen so far still read what it held.
func FuzzRunMatchesSortedSlice(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 4, 0, 1, 5, 0, 9})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 4, 0, 3, 2, 4, 0, 2, 4})
	var asc []byte
	for k := 0; k < 100; k++ {
		asc = append(asc, 0, byte(k))
		if k%25 == 24 {
			asc = append(asc, 4, 0)
		}
	}
	f.Add(append(asc, 3, 20, 2, 100, 3, 60, 1, 77))
	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 256)] // the checks are quadratic in it
		r := NewRun(cmpWide)
		var model []wide
		var frozen []frozenRun[wide]
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, k := prog[pc]%5, int(prog[pc+1])
			i, found := slices.BinarySearchFunc(model, wide{k: k}, cmpWide)
			switch op {
			case 0, 1:
				// Op 1 puts a batch of keys from k on, what grows the tree
				// past two levels within the ops a program has.
				n := 1
				if op == 1 {
					n += int(prog[pc]/5) % 32
				}
				for ; n > 0; n, k = n-1, k+1 {
					w := wide{k: k, v: pc}
					i, found := slices.BinarySearchFunc(model, w, cmpWide)
					if found {
						model[i] = w
					} else {
						model = slices.Insert(model, i, w)
					}
					if r.Put(w) == found {
						t.Fatalf("op %d: Put(%d) disagrees with the model", pc/2, k)
					}
				}
			case 2:
				if found {
					model = slices.Delete(model, i, i+1)
				}
				if r.Delete(wide{k: k}) != found {
					t.Fatalf("op %d: Delete(%d) disagrees with the model", pc/2, k)
				}
			case 3:
				hi := k + int(prog[pc]/5)%64
				end, _ := slices.BinarySearchFunc(model, wide{k: hi}, cmpWide)
				model = slices.Delete(model, i, end)
				if got := r.Cut(wide{k: k}, func(w wide) bool { return w.k < hi }); got != end-i {
					t.Fatalf("op %d: Cut [%d,%d) removed %d, model %d", pc/2, k, hi, got, end-i)
				}
			case 4:
				if cs, moved := r.Freeze(); moved {
					frozen = append(frozen, frozenRun[wide]{cs, slices.Clone(model)})
				}
			}
			checkRun(t, &r, model, sameWide)
			for j, h := range frozen {
				i := 0
				h.cs.Each(func(w wide) bool {
					if i == len(h.want) || !sameWide(w, h.want[i]) {
						t.Fatalf("op %d: frozen root %d changed at element %d", pc/2, j, i)
					}
					i++
					return true
				})
				if i != len(h.want) {
					t.Fatalf("op %d: frozen root %d lost elements", pc/2, j)
				}
			}
		}
	})
}

// TestRunSplitsAndJoinsAtItsBounds pins the two size bounds: a leaf splits
// on the insert that would take it past leafLen and not before, and two
// neighbours are joined by the delete that lets them fit in half a leaf and
// not before — after which the root, left with one child, gives way to it.
func TestRunSplitsAndJoinsAtItsBounds(t *testing.T) {
	full := leafLen[int]()
	r := NewRun(cmpInt)
	for i := 0; i < full; i++ {
		r.Put(2 * i)
	}
	if r.root.kids != nil || len(r.root.elems) != full {
		t.Fatalf("%d elements do not lie in one leaf", full)
	}
	r.Put(1) // in the middle of a full leaf
	ls := leaves(r.Chunks())
	if len(ls) != 2 || len(ls[0])+len(ls[1]) != full+1 || len(ls[0]) < full/2 || len(ls[1]) < full/2 {
		t.Fatalf("after the overflowing insert: %d leaves", len(ls))
	}
	// Shrink both halves until they fit in half a leaf together.
	for ls = leaves(r.Chunks()); len(ls) == 2; ls = leaves(r.Chunks()) {
		a, b := len(ls[0]), len(ls[1])
		if a+b <= full/2 {
			t.Fatalf("leaves of %d and %d were left apart", a, b)
		}
		if a >= b {
			r.Delete(ls[0][0])
		} else {
			r.Delete(ls[1][0])
		}
	}
	if r.root.kids != nil || len(r.root.elems) != full/2 {
		t.Fatalf("joined at %d elements in %d leaves under %d levels, want %d in a root leaf", r.Len(), len(ls), r.levels(), full/2)
	}
	// An interior node splits when a child's split would take it past
	// fanout children.
	r = NewRun(cmpInt)
	for i := 0; i < full*fanout; i++ {
		r.Put(2 * i)
	}
	if r.levels() != 1 || len(r.root.kids) != fanout {
		t.Fatalf("%d full leaves lie under %d levels", fanout, r.levels())
	}
	r.Put(1)
	if r.levels() != 2 || len(r.root.kids) != 2 {
		t.Fatalf("after the overflowing split: %d levels, %d children at the root", r.levels(), len(r.root.kids))
	}
	checkRun(t, &r, r.Chunks().AppendTo(nil), func(a, b int) bool { return a == b })
}

// TestRunLoadsSortedInputByAppending: input in order costs one comparison
// an element, fills every leaf but the last to the brim, and never moves an
// element it has placed — what keeps loading a view or a label index linear.
func TestRunLoadsSortedInputByAppending(t *testing.T) {
	const n = 10_000
	compared := 0
	r := NewRun(func(a, b int) int { compared++; return a - b })
	first := map[int]*int{}
	for i := 0; i < n; i++ {
		r.Put(i)
		ls := leaves(r.Chunks())
		c := ls[len(ls)-1]
		first[i] = &c[len(c)-1]
	}
	if compared != n-1 {
		t.Errorf("%d comparisons to load %d elements in order, want %d", compared, n, n-1)
	}
	full := leafLen[int]()
	ls := leaves(r.Chunks())
	if want := (n + full - 1) / full; len(ls) != want {
		t.Errorf("%d leaves, want %d", len(ls), want)
	}
	i := 0
	for li, c := range ls {
		if li < len(ls)-1 && len(c) != full {
			t.Errorf("leaf %d holds %d of %d", li, len(c), full)
		}
		for k := range c {
			// The first leaf grows by reallocation; every later one is
			// allocated at its final size.
			if li > 0 && first[i] != &c[k] {
				t.Fatalf("element %d moved after it was placed", i)
			}
			i++
		}
	}
}

// TestFrozenEditCopiesAPath pins what an edit of a published run costs: on
// runs of 10³, 10⁵ and 10⁶ pointer-sized elements, a Put that splits a
// full leaf at every level it can, a Delete and a Cut, each right after a
// Freeze, allocate at most one leaf and one interior node per level (a
// split's two halves together, with one more node header) — under 2 KB at
// 10⁶, where a flat directory of 2 KB chunks alone is over 94 KB. Every
// root frozen before still reads what it held.
func TestFrozenEditCopiesAPath(t *testing.T) {
	hdr := int(unsafe.Sizeof(node[int]{}))
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		r := NewRun(cmpInt)
		for i := 0; i < n; i++ {
			r.Put(2 * i)
		}
		// A leaf with the eighth of room a copy gets, an interior node a
		// level and one more for a root that splits, two headers each.
		levels := r.levels()
		budget := uint64(leafBytes + leafBytes/8 + (levels+1)*fanout*int(unsafe.Sizeof(&r)) + (levels+2)*2*hdr)
		var frozen []frozenRun[int]
		full := leafLen[int]()
		block := 2 * (full*(n/full/4) + 8) // a block inside one leaf
		for _, e := range []struct {
			name string
			edit func()
		}{
			{"Put", func() { r.Put(2*(n/2) + 1) }}, // into a full leaf
			{"Delete", func() { r.Delete(2 * (n / 3)) }},
			{"Cut", func() { r.Cut(block, func(v int) bool { return v < block+20 }) }},
		} {
			cs, _ := r.Freeze()
			frozen = append(frozen, frozenRun[int]{cs, cs.AppendTo(nil)})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.edit()
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d elements, %d levels: %s allocated %d B, budget %d", n, levels, e.name, got, budget)
			if got > budget || got > 2<<10 {
				t.Errorf("%s on a frozen run of %d allocated %d B, budget %d", e.name, n, got, min(budget, 2<<10))
			}
		}
		for i, h := range frozen {
			if got := h.cs.AppendTo(nil); !slices.Equal(got, h.want) {
				t.Fatalf("%d elements: frozen root %d changed under later edits", n, i)
			}
		}
		if n <= 100_000 {
			checkRun(t, &r, r.Chunks().AppendTo(nil), func(a, b int) bool { return a == b })
		}
	}
}

// TestFrozenChunksStayBitIdentical is the aliasing oracle: a root handed
// out by Freeze reads the same after a thousand later edits — among them
// appends that fit in a shared leaf's spare capacity, overwrites, and cuts
// and deletes that clear a leaf's tail — while readers scan it
// concurrently, so under -race an edit in place is a reported race as well
// as a mismatch.
func TestFrozenChunksStayBitIdentical(t *testing.T) {
	r := NewRun(cmpInt)
	for i := 0; i < 1000; i++ {
		r.Put(4 * i)
	}
	// A last leaf with spare capacity, which an append could write into.
	if ls := leaves(r.Chunks()); cap(ls[len(ls)-1]) == len(ls[len(ls)-1]) {
		t.Fatal("fixture: the last leaf has no spare capacity")
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
			r.Put(4000 + step) // appends past the end, within the last leaf's capacity
		case 1:
			r.Put(4*rng.Intn(1000) + 1) // inserts mid-leaf
		case 2:
			r.Put(4 * rng.Intn(1000)) // overwrites
		case 3:
			r.Delete(4 * rng.Intn(1000))
		case 4:
			lo := 4 * rng.Intn(1000)
			r.Cut(lo, func(v int) bool { return v < lo+40 })
		}
		if step%100 == 99 {
			r.Freeze() // and start another generation
		}
	}
	close(stop)
	wg.Wait()
	if got := cs.AppendTo(nil); !slices.Equal(got, want) {
		t.Fatal("the frozen root changed under later edits")
	}
	for i, c := range leaves(cs) {
		if len(c) == 0 {
			t.Fatalf("frozen leaf %d was emptied", i)
		}
	}
}

// TestChunksOfASlice: a plain sorted slice read as a run's leaves holds its
// elements in order, in leaves no fuller than a run's.
func TestChunksOfASlice(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 64*16 + 1, 100_000} {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		cs := ChunksOf(s)
		if cs.Len() != n || !slices.Equal(cs.AppendTo(nil), s) {
			t.Fatalf("ChunksOf(%d elements) reads %d", n, cs.Len())
		}
		for _, l := range leaves(cs) {
			if len(l) > leafLen[int]() || cap(l) != len(l) {
				t.Fatalf("ChunksOf(%d): a leaf of %d, cap %d", n, len(l), cap(l))
			}
		}
		if v, ok := cs.Find(func(e int) int { return e - n/2 }); n > 0 && (!ok || v != n/2) {
			t.Fatalf("ChunksOf(%d): Find(%d) = %d, %v", n, n/2, v, ok)
		}
	}
}

// TestFromReadsTheSuffixItSeeks: over runs of every depth, From at x
// yields exactly the elements not below x, in order, and stops the moment
// f returns false; Find is its first element when that equals x.
func TestFromReadsTheSuffixItSeeks(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 64*16 + 1, 20_000} {
		s := make([]int, n)
		for i := range s {
			s[i] = 2 * i // odd probes fall between elements
		}
		cs := ChunksOf(s)
		for _, x := range []int{-1, 0, 1, n / 2, n - 1, n, 2*n - 2, 2*n - 1, 2 * n} {
			lo, _ := slices.BinarySearch(s, x)
			var got []int
			cs.From(func(e int) int { return e - x }, func(e int) bool { got = append(got, e); return true })
			if !slices.Equal(got, s[lo:]) {
				t.Fatalf("n=%d: From(%d) read %d elements, want %d", n, x, len(got), n-lo)
			}
			for _, stop := range []int{1, 3, 100} {
				got = got[:0]
				cs.From(func(e int) int { return e - x }, func(e int) bool { got = append(got, e); return len(got) < stop })
				if want := s[lo:min(lo+stop, n)]; !slices.Equal(got, want) {
					t.Fatalf("n=%d: From(%d) stopping after %d read %v, want %v", n, x, stop, got, want)
				}
			}
			v, ok := cs.Find(func(e int) int { return e - x })
			if want := lo < n && s[lo] == x; ok != want || ok && v != x {
				t.Fatalf("n=%d: Find(%d) = %d, %v", n, x, v, ok)
			}
		}
	}
}
