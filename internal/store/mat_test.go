package store

import (
	"runtime"
	"slices"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// TestMatBytesPerTuple holds a snowcap tuple to its IDs: a Mat of 10,000
// tuples of width 3 keeps 16 B a binding and 8 B a count, 56 B a tuple,
// and the budget is 64. A tuple that was a header of its own pointing at a
// slice of items, each with a live-node pointer a mat always left nil, came
// to ~108 B.
func TestMatBytesPerTuple(t *testing.T) {
	const n = 10000
	p := pattern.MustParse(`//a{ID}//b{ID}//c{ID}`)
	root := dewey.NewRoot("r")
	// The IDs are built before the first reading: their keys are the
	// document's, not the mat's.
	blk := algebra.Block{Cols: []int{2, 0, 1}, Counts: make([]int, n)}
	for i := range n {
		a := root.Child("a", dewey.OrdAt(n-i))
		b := a.Child("b", dewey.OrdAt(0))
		blk.IDs = append(blk.IDs, b.Child("c", dewey.OrdAt(0)), a, b)
		blk.Counts[i] = 1
	}
	blk.Nodes = make([]*xmltree.Node, len(blk.IDs))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMat(p, p.FullMask())
	if m.AddBlock(blk) != n {
		t.Fatal("the tuples were not all new")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perTuple := int(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d tuples of width 3, %d B of live heap per tuple", n, perTuple)
	if perTuple > 64 {
		t.Errorf("a mat holds %d B per tuple of width 3, budget 64", perTuple)
	}
	runtime.KeepAlive(m)
	runtime.KeepAlive(blk)
}

// modelTuple is one tuple of FuzzMatMatchesTupleModel's model.
type modelTuple struct {
	ids   []dewey.ID
	count int
}

// FuzzMatMatchesTupleModel runs programs of AddBlock, FillFromBlock and
// RemoveIf over a small Dewey forest against a sorted slice of tuples.
// RemoveIf drops what a deletion does (a binding under a cover's roots) or
// what a predicate flip does (a column binding one of a set of nodes). The
// first byte picks the width (1 to 4 columns); then each op byte is
// followed by its operands: a block's size, column order and each tuple's
// bindings and count, a cover's roots, or a column and its nodes. After every op the mat's
// lent block must be the model — the same stripes in the same order, the
// same counts, no live nodes, cap-clamped arrays — and each op must report
// what it added or removed as the model counts it. The seed corpus
// (testdata) has a program of each width that merges a tuple into the
// middle of the stored ones.
func FuzzMatMatchesTupleModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		pool := forest()
		pc := 0
		next := func() int {
			if pc >= len(prog) {
				return 0
			}
			pc++
			return int(prog[pc-1])
		}
		w := 1 + next()%4
		p := pattern.MustParse(`//a{ID}//b{ID}//c{ID}//d{ID}`)
		m := NewMat(p, 1<<w-1)
		var model []modelTuple
		cmp := func(a, b modelTuple) int { return algebra.CompareTuples(a.ids, b.ids) }
		// remove runs RemoveIf with drop, which the model's tuples drop
		// where gone holds for them.
		remove := func(step int, drop func([]dewey.ID) bool, gone func(modelTuple) bool) {
			kept := slices.DeleteFunc(slices.Clone(model), gone)
			if got := m.RemoveIf(drop); got != len(model)-len(kept) {
				t.Fatalf("step %d: RemoveIf removed %d tuples, the model %d", step, got, len(model)-len(kept))
			}
			model = kept
		}
		for step := 0; pc < len(prog) && step < 64; step++ {
			switch op := next() % 4; op {
			case 0, 1: // AddBlock, FillFromBlock
				size, rot := 1+next()%6, next()
				blk := algebra.Block{Cols: make([]int, w)}
				for i := range w {
					blk.Cols[i] = m.Cols[(i+rot)%w]
				}
				if op == 1 {
					model = model[:0]
				}
				fresh := 0
				for range size {
					tup := modelTuple{ids: make([]dewey.ID, w), count: 1 + next()%3}
					for i := range w {
						id := pool[next()%len(pool)]
						blk.IDs = append(blk.IDs, id)
						tup.ids[slices.Index(m.Cols, blk.Cols[i])] = id
					}
					blk.Counts = append(blk.Counts, tup.count)
					if i, ok := slices.BinarySearchFunc(model, tup, cmp); ok {
						model[i].count += tup.count
					} else {
						model = slices.Insert(model, i, tup)
						fresh++
					}
				}
				if rot%2 == 1 {
					blk.Nodes = make([]*xmltree.Node, len(blk.IDs))
				}
				if op == 1 {
					m.FillFromBlock(blk)
				} else if got := m.AddBlock(blk); got != fresh {
					t.Fatalf("step %d: AddBlock added %d tuples, the model %d", step, got, fresh)
				}
			case 2: // RemoveIf, a deletion's: a binding under a cover
				roots := []dewey.ID{pool[next()%len(pool)], pool[next()%len(pool)]}
				under := func(id dewey.ID) bool {
					return slices.ContainsFunc(roots, func(r dewey.ID) bool { return r.Equal(id) || r.IsAncestorOf(id) })
				}
				remove(step, coverOf(roots).ContainsAny, func(tup modelTuple) bool { return slices.ContainsFunc(tup.ids, under) })
			case 3: // RemoveIf, a flip's: one column binding one of a set of nodes
				c, out := next()%w, []dewey.ID{pool[next()%len(pool)], pool[next()%len(pool)]}
				remove(step, func(t []dewey.ID) bool { return slices.ContainsFunc(out, t[c].Equal) },
					func(tup modelTuple) bool { return slices.ContainsFunc(out, tup.ids[c].Equal) })
			}
			b := m.Block()
			if m.Len() != len(model) || b.Len() != len(model) || len(b.IDs) != len(model)*w || b.Nodes != nil ||
				cap(b.IDs) != len(b.IDs) || cap(b.Counts) != len(b.Counts) || !slices.Equal(b.Cols, m.Cols) {
				t.Fatalf("step %d: the mat lends %d tuples (%d IDs, Nodes %v, caps %d and %d) over %v, the model has %d",
					step, b.Len(), len(b.IDs), b.Nodes != nil, cap(b.IDs), cap(b.Counts), b.Cols, len(model))
			}
			for i, tup := range model {
				if !slices.Equal(b.Tuple(i), tup.ids) || b.Counts[i] != tup.count {
					t.Fatalf("step %d: tuple %d is %v ×%d, the model's %v ×%d", step, i, b.Tuple(i), b.Counts[i], tup.ids, tup.count)
				}
			}
		}
	})
}

// forest is FuzzMatMatchesTupleModel's pool of IDs: two roots, four
// children each and four grandchildren under every child, 42 IDs.
func forest() []dewey.ID {
	var pool []dewey.ID
	for r := range 2 {
		root := dewey.NewRoot([]string{"r", "s"}[r])
		pool = append(pool, root)
		for i := range 4 {
			kid := root.Child("k", dewey.OrdAt(i))
			pool = append(pool, kid)
			for j := range 4 {
				pool = append(pool, kid.Child("g", dewey.OrdAt(j)))
			}
		}
	}
	return pool
}
