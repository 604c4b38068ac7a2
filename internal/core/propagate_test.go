package core

import (
	"sync/atomic"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/update"
)

// armablePanicJoin delegates to the default structural join until armed,
// then panics exactly once — a deterministic way to blow up one view's
// propagation mid-statement without touching the others.
type armablePanicJoin struct {
	armed atomic.Bool
}

func (j *armablePanicJoin) join(left algebra.Block, lIdx int, right algebra.Block, rIdx int, desc bool) algebra.Block {
	if j.armed.CompareAndSwap(true, false) {
		panic("injected join failure")
	}
	return algebra.StructuralJoin(left, lIdx, right, rIdx, desc)
}

// TestPropagatePanicRepaired: a panic inside one view's propagation must
// not escape ApplyStatement. The panicking view is reported, repaired by
// recomputation, and the engine keeps applying statements afterwards.
func TestPropagatePanicRepaired(t *testing.T) {
	// Propagation is sequential: views are walked one after another.
	t.Run("sequential", func(t *testing.T) {
		reg := obs.New()
		pj := &armablePanicJoin{}
		d := mustDoc(t, `<root><a><b><c>5</c></b></a><a><b><c>7</c></b></a></root>`)
		e := New(d, WithMetrics(reg), WithJoin(pj.join))
		views := []string{
			`//a{ID}//b{ID}`,
			`//a{ID}//b{ID}//c{ID,val}`,
			`//root{ID}//c{ID}`,
		}
		var mvs []*ManagedView
		for _, v := range views {
			mvs = append(mvs, addView(t, e, v))
		}

		pj.armed.Store(true)
		rep, err := e.ApplyStatement(update.MustParse(`insert <b><c>9</c></b> into /root/a`))
		if err != nil {
			t.Fatalf("apply with panicking view: %v", err)
		}
		panicked := 0
		for _, vr := range rep.Views {
			if vr.Panicked {
				panicked++
			}
		}
		if panicked != 1 {
			t.Fatalf("panicked views = %d, want 1", panicked)
		}
		if got := reg.CounterValue("core.views.panicked"); got != 1 {
			t.Fatalf("core.views.panicked = %d, want 1", got)
		}
		for i, mv := range mvs {
			if !e.CheckView(mv) {
				t.Fatalf("view %s inconsistent after repaired panic", views[i])
			}
		}

		// The writer loop scenario: the next statement (join disarmed) must
		// propagate normally.
		rep2, err := e.ApplyStatement(update.MustParse(`delete /root/a/b`))
		if err != nil {
			t.Fatalf("apply after panic: %v", err)
		}
		for _, vr := range rep2.Views {
			if vr.Panicked {
				t.Fatal("panic flag leaked into the next statement")
			}
		}
		for i, mv := range mvs {
			if !e.CheckView(mv) {
				t.Fatalf("view %s inconsistent after post-panic statement", views[i])
			}
		}
	})
}

// TestReplaceReportsInsertHalfPanic: a replace is two propagations, and its
// report is their merge. A view whose insert half panics — armed by the
// insert half's first span, its ∆ walk, once the delete half has landed —
// is repaired and must be reported as panicked, as it would be had the
// delete half panicked.
func TestReplaceReportsInsertHalfPanic(t *testing.T) {
	pj := &armablePanicJoin{}
	reg := obs.New()
	halves := 0
	arm := obs.TracerFunc(func(name string) func() {
		if name == obs.PhaseComputeDelta {
			if halves++; halves == 2 {
				pj.armed.Store(true)
			}
		}
		return func() {}
	})
	e := New(mustDoc(t, `<r><a><b/></a></r>`), WithMetrics(reg), WithJoin(pj.join), WithTracer(arm))
	mv := addView(t, e, `//a{ID}//b{ID}`)
	rep, err := e.ApplyStatement(update.MustParse(`replace /r/a/b with <b/>`))
	if err != nil {
		t.Fatal(err)
	}
	if halves != 2 || pj.armed.Load() {
		t.Fatalf("%d halves landed, join still armed: %v; the insert half no longer joins", halves, pj.armed.Load())
	}
	if got := reg.CounterValue("core.views.panicked"); got != 1 {
		t.Fatalf("core.views.panicked = %d, want 1", got)
	}
	if !rep.Views[0].Panicked {
		t.Error("the replace's report lost its insert half's panic")
	}
	if !e.CheckView(mv) {
		t.Error("view inconsistent after the repaired insert half")
	}
}

// TestSnapshotImmutable: a snapshot taken before mutations keeps serving
// the captured state — rows, document content, and IDs — no matter what
// the engine does afterwards. The document copy must preserve the live
// tree's (history-dependent) Dewey IDs so that rows and XPath results from
// the same snapshot agree on node identity.
func TestSnapshotImmutable(t *testing.T) {
	d := mustDoc(t, `<root><a><b>5</b></a></root>`)
	e := New(d, WithMetrics(obs.New()))
	mv := addView(t, e, `//a{ID}//b{ID,val}`)

	snap := e.Snapshot()
	if snap.Version != e.Version() {
		t.Fatalf("snapshot version %d != engine version %d", snap.Version, e.Version())
	}
	vs := snap.View(mv.Name)
	if vs == nil || vs.Rows.Len() != 1 {
		t.Fatalf("snapshot view = %+v, want 1 row", vs)
	}
	wantID := vs.Rows.AppendTo(nil)[0].ID(1)
	if got := snap.Doc().NodeByID(wantID); got == nil || got.StringValue() != "5" {
		t.Fatal("snapshot row does not resolve against the snapshot document")
	}
	xmlBefore := snap.Doc().String()

	for i := 0; i < 3; i++ {
		if _, err := e.ApplyStatement(update.MustParse(`insert <b>9</b> into /root/a`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ApplyStatement(update.MustParse(`delete /root/a/b`)); err != nil {
		t.Fatal(err)
	}

	if vs.Rows.Len() != 1 || vs.Shape.Entry(vs.Rows.AppendTo(nil)[0], 1).Val != "5" {
		t.Fatal("mutations reached a published snapshot's rows")
	}
	if got := snap.Doc().NodeByID(wantID); got == nil || got.StringValue() != "5" {
		t.Fatal("mutations reached a published snapshot's document")
	}
	if snap.Doc().String() != xmlBefore {
		t.Fatal("snapshot serialization changed after mutations")
	}

	// A fresh snapshot reflects the new state and a higher version.
	snap2 := e.Snapshot()
	if snap2.Version <= snap.Version {
		t.Fatalf("version did not advance: %d then %d", snap.Version, snap2.Version)
	}
	if got := snap2.View(mv.Name).Rows.Len(); got != 0 {
		t.Fatalf("fresh snapshot rows = %d, want 0 after delete", got)
	}
}
