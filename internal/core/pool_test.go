package core

import (
	"math/rand"
	"testing"

	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/update"
)

func TestSignatureCanonical(t *testing.T) {
	a := pattern.MustParse(`//a{ID}//b{ID}`)
	b := pattern.MustParse(`//a//b{ID,val,cont}`) // stores differ, extent identical
	if Signature(a) != Signature(b) {
		t.Fatal("stores must not affect the signature")
	}
	c := pattern.MustParse(`//a{ID}/b{ID}`)
	if Signature(a) == Signature(c) {
		t.Fatal("edge kinds must affect the signature")
	}
	d := pattern.MustParse(`//a{ID}//b{ID}[val="5"]`)
	if Signature(a) == Signature(d) {
		t.Fatal("predicates must affect the signature")
	}
	// Branch structure must be unambiguous.
	e := pattern.MustParse(`//a{ID}[//b{ID}//c{ID}]//d{ID}`)
	if Signature(e) == Signature(pattern.MustParse(`//a{ID}[//b{ID}][//c{ID}]//d{ID}`)) {
		t.Fatal("nesting must affect the signature")
	}
}

func TestPoolSharesAcrossViews(t *testing.T) {
	d := mustDoc(t, `<site><people><person><name>A</name><phone/></person><person><name>B</name></person></people></site>`)
	e := NewEngine(d, Options{SharedSnowcaps: true})
	// Q1-like and Q17-like views share the site/people/person chain.
	mv1 := addView(t, e, `/site/people/person{ID}/name{ID,val}`)
	mv2 := addView(t, e, `/site/people/person{ID}[/phone]/name{ID,val}`)
	pool := e.SharedPool()
	if pool == nil {
		t.Fatal("pool missing")
	}
	if pool.SharedRefs() <= pool.Entries() {
		t.Fatalf("no sharing: %d entries, %d refs", pool.Entries(), pool.SharedRefs())
	}
	apply(t, e, `for $p in /site/people/person insert <name>X</name>`)
	apply(t, e, `delete /site/people/person[phone]`)
	if !e.CheckView(mv1) || !e.CheckView(mv2) {
		t.Fatal("pooled views diverged")
	}
}

// TestSharedSnowcapsMaintainCorrectly is the property test under sharing.
func TestSharedSnowcapsMaintainCorrectly(t *testing.T) {
	views := []string{
		`//a{ID}//b{ID}`,
		`//a{ID}//b{ID,val}`, // same extent as above: shared
		`//a{ID}[//b{ID}//c{ID}]//d{ID}`,
		`//a{ID}[//b]`,
		`//a{ID}[val="5"]//b{ID}`,
	}
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 15; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := NewEngine(d, Options{SharedSnowcaps: true})
		var mvs []*ManagedView
		for _, src := range views {
			mvs = append(mvs, addView(t, e, src))
		}
		if e.SharedPool().SharedRefs() <= e.SharedPool().Entries() {
			t.Fatal("expected sharing between the first two views")
		}
		for step := 0; step < 6; step++ {
			st, err := update.Parse(randomStatement(rng))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ApplyStatement(st); err != nil {
				t.Fatal(err)
			}
			for i, mv := range mvs {
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d view %s diverged under sharing", trial, step, views[i])
				}
			}
		}
	}
}

func TestPoolBlockRemapsColumns(t *testing.T) {
	d := mustDoc(t, `<a><b/><b/></a>`)
	st := store.New(d)
	pool := NewPool(st, nil, &update.Labels{})
	sub := pattern.MustParse(`//a{ID}//b{ID}`)
	sig := pool.Register(sub)
	blk, ok := pool.Block(sig, []int{3, 7})
	if !ok {
		t.Fatal("block missing")
	}
	if len(blk.Cols) != 2 || blk.Cols[0] != 3 || blk.Cols[1] != 7 {
		t.Fatalf("cols %v", blk.Cols)
	}
	if len(blk.Tuples) != 2 {
		t.Fatalf("tuples %d", len(blk.Tuples))
	}
	if _, ok := pool.Block("nope", nil); ok {
		t.Fatal("unknown signature found")
	}
}

func TestLazyRejectsSharedSnowcaps(t *testing.T) {
	d := mustDoc(t, `<a><b/></a>`)
	e := NewEngine(d, Options{SharedSnowcaps: true})
	addView(t, e, `//a{ID}//b{ID}`)
	defer func() {
		if recover() == nil {
			t.Fatal("NewLazy must reject shared snowcaps")
		}
	}()
	NewLazy(e)
}

// TestOptionsCombined exercises shared snowcaps + parallel propagation +
// cost-based policy together under random streams (run with -race).
func TestOptionsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 6; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := NewEngine(d, Options{
			SharedSnowcaps: true,
			Parallel:       true,
			Policy:         PolicyCost,
			Profile:        UpdateProfile{"a": 1, "b": 1, "c": 1, "d": 1},
		})
		var mvs []*ManagedView
		for _, src := range []string{
			`//a{ID}//b{ID}`, `//a{ID}//b{ID,val}`,
			`//a{ID}[//b{ID}//c{ID}]//d{ID}`, `//root{ID}/a{ID}`,
		} {
			mvs = append(mvs, addView(t, e, src))
		}
		for step := 0; step < 5; step++ {
			st, err := update.Parse(randomStatement(rng))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ApplyStatement(st); err != nil {
				t.Fatal(err)
			}
			for _, mv := range mvs {
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d: combined-options view %s diverged", trial, step, mv.Name)
				}
			}
		}
	}
}
