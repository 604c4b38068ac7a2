package xmltree

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xivm/internal/dewey"
)

// checkKids asserts kids.go's invariants on the child list of every node
// under root, and that every way of reading a list agrees with its shape:
// every child at one depth, the height its holders record; no empty branch; at most fanout entries a slice
// and at least two in a parent's slice of branches; neighbouring branches
// more than half full together; keys strictly ascending; the cursor, both
// ways, NumChildren, the descent by key and the last child reading the
// children the shape holds; and no branch reachable from Walk.
func checkKids(root *Node) error {
	var err error
	Walk(root, func(n *Node) bool {
		if n.Kind == branch {
			err = errors.New("Walk reached a branch")
		} else if e := checkList(n); e != nil {
			err = fmt.Errorf("children of %v: %w", n.ID(), e)
		}
		return err == nil
	})
	return err
}

func checkList(n *Node) error {
	var kids []*Node
	depth := -1
	var visit func(holder *Node, level int) error
	visit = func(holder *Node, level int) error {
		s := holder.kids()
		switch {
		case len(s) > fanout:
			return fmt.Errorf("a slice of %d entries at level %d", len(s), level)
		case holder.Kind == branch && len(s) == 0:
			return fmt.Errorf("an empty branch at level %d", level)
		case holder.height == 0:
			if depth >= 0 && depth != level {
				return fmt.Errorf("children at levels %d and %d", depth, level)
			}
			depth = level
			for _, c := range s {
				if c.Kind == branch {
					return fmt.Errorf("a branch among children at level %d", level)
				}
			}
			kids = append(kids, s...)
			return nil
		case holder.Kind != branch && len(s) < 2:
			return errors.New("a parent over one branch")
		}
		for i, b := range s {
			if b.Kind != branch || b.height != holder.height-1 {
				return fmt.Errorf("an entry of height %d among branches at level %d, below a height of %d", b.height, level, holder.height)
			}
			if i > 0 && len(s[i-1].kids())+len(b.kids()) <= fanout/2 {
				return fmt.Errorf("neighbouring branches of %d and %d entries at level %d", len(s[i-1].kids()), len(b.kids()), level+1)
			}
			if err := visit(b, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(n, 0); err != nil {
		return err
	}
	for i := 1; i < len(kids); i++ {
		if kids[i-1].ID().Key() >= kids[i].ID().Key() {
			return fmt.Errorf("key of child %d is not above child %d's", i, i-1)
		}
	}
	k, i := n.Kids(), 0
	for ; k.Next(); i++ {
		if i >= len(kids) || k.Node() != kids[i] {
			return fmt.Errorf("the cursor reads another child %d", i)
		}
	}
	if i != len(kids) {
		return fmt.Errorf("the cursor reads %d of %d children", i, len(kids))
	}
	for i--; k.Prev(); i-- {
		if i < 0 || k.Node() != kids[i] {
			return fmt.Errorf("the cursor reads another child %d going back", i)
		}
	}
	if i != -1 {
		return fmt.Errorf("the cursor going back stops before child %d", i)
	}
	if got := n.NumChildren(); got != len(kids) {
		return fmt.Errorf("NumChildren = %d, want %d", got, len(kids))
	}
	if len(kids) > 0 && lastKid(n) != kids[len(kids)-1] {
		return errors.New("lastKid is not the last child")
	}
	for i, c := range kids {
		at, ok := n.KidsAt(c.ID().Key())
		if !ok || at.Node() != c {
			return fmt.Errorf("child %d does not resolve by its key", i)
		}
		if i > 0 && (!at.Prev() || at.Node() != kids[i-1]) {
			return fmt.Errorf("the cursor at child %d does not step back to its sibling", i)
		}
	}
	return nil
}

// wideDoc returns a document whose root has width empty children.
func wideDoc(tb testing.TB, width int) *Document {
	tb.Helper()
	var b strings.Builder
	b.WriteString("<r>")
	for range width {
		b.WriteString("<c/>")
	}
	b.WriteString("</r>")
	d, err := ParseString(b.String())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWideParentEditCopiesALeaf: on a published document, an insertion
// under one child of a parent of 10³, 10⁴ or 10⁵ children, and the
// deletion of another, each copy the parent, the branches on the path and
// one leaf — at most 2 KB whatever the width, where a flat child list cost
// 8 B a child, 800 KB at 10⁵ — and leave every epoch published before them
// as it was. Each width's cost is the least of three identical runs: a run
// during which the runtime starts an OS thread also counts the thread's
// ~5 KB of heap.
func TestWideParentEditCopiesALeaf(t *testing.T) {
	x, err := ParseString(`<x/>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1e3, 1e4, 1e5} {
		ins, del := wideParentEdits(t, x.Root, width)
		for range 2 {
			i, d := wideParentEdits(t, x.Root, width)
			ins, del = min(ins, i), min(del, d)
		}
		t.Logf("%d children: insert under a child %d B, delete of a child %d B", width, ins, del)
		if ins > 2<<10 || del > 2<<10 {
			t.Errorf("%d children: insert %d B, delete %d B; budget 2 KB each", width, ins, del)
		}
	}
}

// wideParentEdits runs TestWideParentEditCopiesALeaf's insertion of x and
// deletion on a fresh published document of width children, checks every
// epoch, and returns what each edit allocated.
func wideParentEdits(t *testing.T, x *Node, width int) (ins, del uint64) {
	t.Helper()
	d := wideDoc(t, width)
	if err := checkKids(d.Root); err != nil {
		t.Fatalf("width %d, parsed: %v", width, err)
	}
	var epochs []*Document
	var texts []string
	publish := func() {
		epochs = append(epochs, d.Snapshot())
		texts = append(texts, epochs[len(epochs)-1].String())
	}
	nth := func(i int) *Node {
		k := d.Root.Kids()
		for k.Next() && i > 0 {
			i--
		}
		return k.Node()
	}
	publish()
	target, victim := nth(width/2), nth(width/3)
	ins = allocated(func() {
		if _, err := d.ApplyInsert(target, x); err != nil {
			t.Fatal(err)
		}
	})
	publish()
	del = allocated(func() {
		if _, err := d.ApplyDelete(victim); err != nil {
			t.Fatal(err)
		}
	})
	publish()
	for i, ep := range epochs {
		if ep.String() != texts[i] {
			t.Fatalf("%d children: epoch %d changed after publication", width, i)
		}
		if err := checkKids(ep.Root); err != nil {
			t.Fatalf("%d children, epoch %d: %v", width, i, err)
		}
	}
	if d.Size() != width+1 || d.NodeByID(victim.ID()) != nil || d.NodeByID(target.ID()).NumChildren() != 1 {
		t.Fatalf("%d children: the edits did not land (size %d)", width, d.Size())
	}
	return ins, del
}

// TestChildListShrinksThroughEveryHeight empties a published list two
// branch levels tall in scattered batches, publishing between them, so that
// leaves and branches at every level are emptied, joined with a neighbour
// and given way to by a parent over one branch; every epoch keeps what it
// was published with.
func TestChildListShrinksThroughEveryHeight(t *testing.T) {
	const width = 9000
	d := wideDoc(t, width)
	var alive []*Node
	for k := d.Root.Kids(); k.Next(); {
		alive = append(alive, k.Node())
	}
	type epoch struct {
		doc  *Document
		text string
	}
	var epochs []epoch
	for round := 0; len(alive) > 0; round++ {
		ep := d.Snapshot()
		if round%16 == 0 {
			epochs = append(epochs, epoch{ep, ep.String()})
		}
		// Every seventh child from a place that moves each round, up to 97.
		var victims []*Node
		for j := (round * 131) % len(alive); j < len(alive) && len(victims) < 97; j += 7 {
			victims = append(victims, alive[j])
		}
		if len(victims) == 0 {
			victims = alive[:1]
		}
		if _, _, err := d.ApplyDeleteBatch(victims); err != nil {
			t.Fatal(err)
		}
		alive = slices.DeleteFunc(alive, func(n *Node) bool { return slices.Contains(victims, n) })
		if round%8 == 0 || len(alive) < 200 {
			if err := checkKids(d.Root); err != nil {
				t.Fatalf("round %d, %d children: %v", round, len(alive), err)
			}
		}
		if d.Root.NumChildren() != len(alive) {
			t.Fatalf("round %d: %d children, want %d", round, d.Root.NumChildren(), len(alive))
		}
	}
	if d.Root.kids() != nil && len(d.Root.kids()) != 0 {
		t.Fatalf("an emptied list keeps %d entries", len(d.Root.kids()))
	}
	for i, ep := range epochs {
		if ep.doc.String() != ep.text {
			t.Fatalf("epoch %d changed after publication", i)
		}
		if err := checkKids(ep.doc.Root); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
	}
}

// TestChildListEdges: what random edits of wide lists rarely reach. A last
// leaf of one child, at each height, is emptied on a published list, and
// the parent takes back the one branch left — a copy, since the epoch holds
// it. Keys a list does not hold — below, between and above its children —
// resolve to nothing, and cutting them cuts nothing. A stamp wrap's deep
// copy keeps the list's shape.
func TestChildListEdges(t *testing.T) {
	for _, width := range []int{fanout + 1, fanout*fanout + 1} {
		d := wideDoc(t, width)
		ep := d.Snapshot()
		text := ep.String()
		last := lastKid(d.Root)
		if _, err := d.ApplyDelete(last); err != nil {
			t.Fatal(err)
		}
		if top := len(d.Root.kids()); top != fanout {
			t.Errorf("%d children less one: the parent's slice holds %d entries, want %d", width, top, fanout)
		}
		for _, doc := range []*Document{d, ep} {
			if err := checkKids(doc.Root); err != nil {
				t.Fatalf("%d children: %v", width, err)
			}
		}
		if ep.String() != text || ep.NodeByID(last.ID()) != last {
			t.Fatalf("%d children: the epoch changed", width)
		}
		if _, ok := d.Root.KidsAt(d.Root.ID().Key()); ok {
			t.Fatalf("%d children: the parent's own key resolves among its children", width)
		}
		absent := []dewey.ID{
			last.ID(),
			d.Root.ID().Child("c", dewey.Between(dewey.OrdAt(3), dewey.OrdAt(4))),
			d.Root.ID().Child("c", dewey.OrdAt(2*width)),
		}
		for _, id := range absent {
			if _, ok := d.Root.KidsAt(id.Key()); ok || d.NodeByID(id) != nil {
				t.Fatalf("%d children: %v resolves", width, id)
			}
			// The node, and a child of it: a parent the descent does not find.
			victims := []*Node{NewNode(Element, "c", ""), NewNode(Element, "c", "")}
			victims[0].SetID(id)
			victims[1].SetID(id.Child("c", dewey.OrdAt(0)))
			if out, _, err := d.ApplyDeleteBatch(victims); err != nil || len(out) != 0 {
				t.Fatalf("%d children: cutting %v detached %d nodes (%v)", width, id, len(out), err)
			}
		}
		if d.Size() != width || d.Root.NumChildren() != width-1 {
			t.Fatalf("%d children: size %d, %d children after the cuts that cut nothing", width, d.Size(), d.Root.NumChildren())
		}

		// A stamp wrap copies the list shape and all: the writer's edits
		// after it leave the epoch before it alone.
		d.gen = ^uint32(0)
		wrapped := d.Snapshot()
		text = wrapped.String()
		if _, err := d.ApplyDelete(lastKid(d.Root)); err != nil {
			t.Fatal(err)
		}
		for _, doc := range []*Document{d, wrapped} {
			if err := checkKids(doc.Root); err != nil {
				t.Fatalf("%d children, after a stamp wrap: %v", width, err)
			}
		}
		if wrapped.String() != text || d.Root.NumChildren() != width-2 {
			t.Fatalf("%d children: an edit after a stamp wrap reached the epoch before it", width)
		}
	}
}

// TestOrdsRoundTripWideLists: a serialization and its ordinal stream give
// back every ID of wide lists whose recorded ordinals are above the ones a
// parse assigns — a parent of 200 children whose earlier sibling was
// deleted, and in it the children left after its first 100 were — with the
// restored lists keeping their invariants.
func TestOrdsRoundTripWideLists(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r><a/><p>")
	for range 200 {
		b.WriteString("<c/>")
	}
	b.WriteString("</p></r>")
	d, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	d.Snapshot()
	k := d.Root.Kids()
	k.Next()
	a := k.Node()
	k.Next()
	p := k.Node()
	victims := []*Node{a}
	for c := p.Kids(); c.Next() && len(victims) <= 100; {
		victims = append(victims, c.Node())
	}
	if _, _, err := d.ApplyDeleteBatch(victims); err != nil {
		t.Fatal(err)
	}
	x, err := ParseString(`<x/>`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ApplyInsert(d.NodeByID(p.ID()), x.Root); err != nil {
		t.Fatal(err)
	}

	r, err := ParseString(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyOrds(d.EncodeOrds()); err != nil {
		t.Fatal(err)
	}
	var want, got []dewey.ID
	Walk(d.Root, func(n *Node) bool { want = append(want, n.ID()); return true })
	Walk(r.Root, func(n *Node) bool { got = append(got, n.ID()); return true })
	if len(got) != len(want) || len(want) != 103 { // r, p, 100 c and x
		t.Fatalf("restored %d nodes of %d, want 103", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || r.NodeByID(want[i]) == nil {
			t.Fatalf("node %d: restored as %v, recorded as %v", i, got[i], want[i])
		}
	}
	if err := checkKids(r.Root); err != nil {
		t.Fatal(err)
	}
}

// FuzzChildListMatchesSlice drives one parent's child list across the
// 64-child boundary and back against a plain slice of keys. The first byte
// sets the parsed width, up to 8,128 children — a list two branch levels
// tall from 4,097 on; every further byte is an operation — append a run
// of children, insert under one child (a descent that copies the path to
// it), cut a strided batch of children by key, or publish. After each, the
// writer's list must hold the slice's keys and keep its invariants; at the
// end, every epoch must still hold the keys and the text it was published
// with. Every node, branches included, keeps the payload layout throughout
// (CheckPayload).
func FuzzChildListMatchesSlice(f *testing.F) {
	f.Add([]byte{31, 0xfc, 3, 0xfc, 3, 0x1e, 3, 0xfe, 3})
	f.Add([]byte{40, 2, 6, 10, 3, 0x7e, 3, 0x7e, 0x7e, 3})
	f.Add([]byte{200, 3, 1, 5, 9, 0xfe, 3, 0xfe, 0xfe, 0xfe, 3, 0xfe, 0xfe, 0xfe, 0xfe, 3})
	f.Add([]byte{0, 0xfc, 0xfc, 0xfc, 3, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 3})
	leaf, err := ParseString(`<c/>`)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		d := wideDoc(t, int(ops[0])*int(ops[0])/8)
		var model []string
		for k := d.Root.Kids(); k.Next(); {
			model = append(model, k.Node().ID().Key())
		}
		type epoch struct {
			doc  *Document
			keys []string
			text string
		}
		var epochs []epoch
		for i, op := range ops[1:] {
			arg := int(op >> 2)
			switch op & 3 {
			case 0: // append 1–64 children in one insertion
				trees := make([]*Node, arg+1)
				for j := range trees {
					trees[j] = leaf.Root
				}
				copies, _, err := d.ApplyInsertions([]Insertion{{Target: d.Root, Trees: trees}})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range copies {
					model = append(model, c.ID().Key())
				}
			case 1: // insert under one child
				if len(model) == 0 {
					continue
				}
				c := kidByKey(d.Root, model[arg*len(model)/64])
				if _, err := d.ApplyInsert(c, leaf.Root); err != nil {
					t.Fatal(err)
				}
			case 2: // cut up to 8 children, every 1st–8th from a place i picks
				if len(model) == 0 {
					continue
				}
				stride, n := 1+arg>>3, 1+arg&7
				var victims []*Node
				gone := map[string]bool{}
				for j := (i * 7919) % len(model); j < len(model) && len(victims) < n; j += stride {
					victims = append(victims, kidByKey(d.Root, model[j]))
					gone[model[j]] = true
				}
				detached, _, err := d.ApplyDeleteBatch(victims)
				if err != nil || len(detached) != len(victims) {
					t.Fatalf("op %d: cut %d of %d children: %v", i, len(detached), len(victims), err)
				}
				model = slices.DeleteFunc(model, func(k string) bool { return gone[k] })
			case 3:
				ep := d.Snapshot()
				epochs = append(epochs, epoch{ep, slices.Clone(model), ep.String()})
			}
			if err := sameKeys(d.Root, model); err != nil {
				t.Fatalf("op %d (%#x): %v", i, op, err)
			}
			if err := checkKids(d.Root); err != nil {
				t.Fatalf("op %d (%#x): %v", i, op, err)
			}
			if err := CheckPayload(d.Root); err != nil {
				t.Fatalf("op %d (%#x): %v", i, op, err)
			}
			if d.Size() != d.Root.CountNodes() {
				t.Fatalf("op %d (%#x): Size %d, %d nodes", i, op, d.Size(), d.Root.CountNodes())
			}
		}
		for i, ep := range epochs {
			if err := sameKeys(ep.doc.Root, ep.keys); err != nil {
				t.Fatalf("epoch %d: %v", i, err)
			}
			if err := checkKids(ep.doc.Root); err != nil {
				t.Fatalf("epoch %d: %v", i, err)
			}
			if err := CheckPayload(ep.doc.Root); err != nil {
				t.Fatalf("epoch %d: %v", i, err)
			}
			if ep.doc.String() != ep.text {
				t.Fatalf("epoch %d changed after publication", i)
			}
		}
	})
}

// kidByKey returns n's child with the given key, which n must have.
func kidByKey(n *Node, key string) *Node {
	k, _ := n.KidsAt(key)
	return k.Node()
}

// sameKeys reports whether n's children carry exactly the given keys, in
// order.
func sameKeys(n *Node, keys []string) error {
	i := 0
	for k := n.Kids(); k.Next(); i++ {
		if i >= len(keys) || k.Node().ID().Key() != keys[i] {
			return fmt.Errorf("child %d differs from the slice's", i)
		}
	}
	if i != len(keys) {
		return fmt.Errorf("%d children, the slice has %d", i, len(keys))
	}
	return nil
}
