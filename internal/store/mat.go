package store

import (
	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
)

// Mat is a materialized lattice node: the stored tuples of one snowcap
// sub-pattern, maintained incrementally alongside the view. Tuples are
// stored standalone (IDs only) so the structure could live on disk; live
// node pointers are re-resolved through the document when needed.
type Mat struct {
	Mask   uint64
	Cols   []int // pattern node indexes bound by each tuple column
	byKey  map[string]int
	tups   []algebra.Tuple
	size   int
	keyBuf []byte // reused tuple-key scratch; Mat is not safe for concurrent mutation
}

// NewMat creates an empty materialization for the snowcap mask of p.
func NewMat(p *pattern.Pattern, mask uint64) *Mat {
	return &Mat{Mask: mask, Cols: pattern.MaskIndexes(mask), byKey: make(map[string]int)}
}

// FillFromBlock resets the materialization to the tuples of b, which must
// bind exactly the mat's columns (any order).
func (m *Mat) FillFromBlock(b algebra.Block) {
	m.byKey = make(map[string]int, len(b.Tuples))
	m.tups = m.tups[:0]
	m.size = 0
	perm := m.permFrom(b.Cols)
	for _, t := range b.Tuples {
		m.Add(permuteTuple(t, perm))
	}
}

func (m *Mat) permFrom(cols []int) []int {
	perm := make([]int, len(m.Cols))
	for i, want := range m.Cols {
		perm[i] = -1
		for j, have := range cols {
			if have == want {
				perm[i] = j
				break
			}
		}
		if perm[i] < 0 {
			panic("store: block does not bind materialized column")
		}
	}
	return perm
}

func permuteTuple(t algebra.Tuple, perm []int) algebra.Tuple {
	items := make([]algebra.Item, len(perm))
	for i, j := range perm {
		items[i] = algebra.Item{ID: t.Items[j].ID} // strip live pointers
	}
	return algebra.Tuple{Items: items, Count: t.Count}
}

func appendTupleKey(buf []byte, t algebra.Tuple) []byte {
	for _, it := range t.Items {
		buf = append(buf, it.ID.Key()...)
		buf = append(buf, 0xFF)
	}
	return buf
}

// Add inserts a tuple (or accumulates its count) and reports whether it was
// new. The probe key is assembled in a reused buffer from the IDs' cached
// keys; a string is only materialized when the tuple is genuinely new.
func (m *Mat) Add(t algebra.Tuple) bool {
	m.keyBuf = appendTupleKey(m.keyBuf[:0], t)
	if i, ok := m.byKey[string(m.keyBuf)]; ok {
		if m.tups[i].Count <= 0 {
			m.tups[i] = t
			m.size++
			return true
		}
		m.tups[i].Count += t.Count
		return false
	}
	m.byKey[string(m.keyBuf)] = len(m.tups)
	m.tups = append(m.tups, t)
	m.size++
	return true
}

// AddBlock adds all tuples of b (after column permutation).
func (m *Mat) AddBlock(b algebra.Block) int {
	perm := m.permFrom(b.Cols)
	added := 0
	for _, t := range b.Tuples {
		if m.Add(permuteTuple(t, perm)) {
			added++
		}
	}
	return added
}

// RemoveUnderAny drops, in a single pass, every tuple in which ANY column
// binds a node inside the cover (a deleted subtree), returning the number
// of tuples removed.
func (m *Mat) RemoveUnderAny(cover *dewey.Cover) int {
	removed := 0
	for i := range m.tups {
		t := &m.tups[i]
		if t.Count <= 0 {
			continue
		}
		for _, it := range t.Items {
			if cover.Contains(it.ID) {
				t.Count = 0
				m.size--
				removed++
				break
			}
		}
	}
	return removed
}

// Len returns the number of live tuples.
func (m *Mat) Len() int { return m.size }

// Block returns the live tuples as a block binding m.Cols.
func (m *Mat) Block() algebra.Block {
	out := algebra.Block{Cols: append([]int{}, m.Cols...)}
	for _, t := range m.tups {
		if t.Count > 0 {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}
