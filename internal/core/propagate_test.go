package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
)

// armablePanicJoin delegates to the default structural join until armed,
// then panics exactly once — a deterministic way to blow up one view's
// propagation mid-statement without touching the others. Safe under
// parallel propagation (the arm flag is consumed atomically).
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
// recomputation, and the engine keeps applying statements afterwards —
// sequentially and under parallel propagation (where, before containment,
// the panic would have killed the process from inside a goroutine).
func TestPropagatePanicRepaired(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			reg := obs.New()
			pj := &armablePanicJoin{}
			opts := []Option{WithMetrics(reg), WithJoin(pj.join)}
			if parallel {
				opts = append(opts, WithParallel())
			}
			d := mustDoc(t, `<root><a><b><c>5</c></b></a><a><b><c>7</c></b></a></root>`)
			e := New(d, opts...)
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

			// The writer loop scenario: the next statement (join disarmed)
			// must propagate normally.
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
}

// TestPropagateCancelWithSkips: cancellation mid-fan-out while the
// independence precheck has some views skipped. Skip entries must survive
// as Skipped (not be misreported as Cancelled), cancelled views must be
// repaired, and every view must equal fresh recomputation afterwards.
func TestPropagateCancelWithSkips(t *testing.T) {
	reg := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel when the second non-skipped view's propagation span starts.
	tr := &cancelOnSpan{prefix: "view:", after: 1, cancel: cancel}
	// Declare every view whose pattern mentions "d" independent of the
	// statement (the statement only touches b/c subtrees, so skipping is
	// also semantically correct here).
	precheck := func(p *pattern.Pattern, st *update.Statement) bool {
		for _, n := range p.Nodes {
			if n.Label == "d" {
				return true
			}
		}
		return false
	}
	d := mustDoc(t, `<root><a><b><c>5</c></b><d/></a><a><b/><d/></a></root>`)
	e := New(d, WithMetrics(reg), WithTracer(tr), WithIndependencePrecheck(precheck))
	views := []string{
		`//a{ID}/d{ID}`, // skipped
		`//a{ID}//b{ID}`,
		`//a{ID}//b{ID}//c{ID,val}`,
		`//root{ID}//c{ID}`,
	}
	var mvs []*ManagedView
	for _, v := range views {
		mvs = append(mvs, addView(t, e, v))
	}

	rep, err := e.ApplyStatementCtx(ctx, update.MustParse(`insert <b><c>9</c></b> into /root/a`))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("mid-pass cancellation must still return the report")
	}
	var skipped, cancelled, propagated int
	for _, vr := range rep.Views {
		switch {
		case vr.Skipped && vr.Cancelled:
			t.Fatalf("view %s both Skipped and Cancelled", vr.View.Name)
		case vr.Skipped:
			if strings.Contains(vr.View.Pattern.String(), "d") == false {
				t.Fatalf("view %s skipped but not declared independent", vr.View.Name)
			}
			skipped++
		case vr.Cancelled:
			cancelled++
		default:
			propagated++
		}
	}
	if skipped != 1 {
		t.Fatalf("skipped views = %d, want 1", skipped)
	}
	if cancelled == 0 {
		t.Fatal("no view cancelled despite mid-fan-out cancellation")
	}
	if propagated == 0 {
		t.Fatal("cancellation fired before any view propagated")
	}
	if got := reg.CounterValue("core.views.skipped"); got != int64(skipped) {
		t.Fatalf("core.views.skipped = %d, want %d", got, skipped)
	}
	if got := reg.CounterValue("core.views.cancelled"); got != int64(cancelled) {
		t.Fatalf("core.views.cancelled = %d, want %d", got, cancelled)
	}
	for i, mv := range mvs {
		if !e.CheckView(mv) {
			t.Fatalf("view %s inconsistent after cancelled pass with skips", views[i])
		}
	}

	// The engine keeps working after the cancelled pass.
	if _, err := e.ApplyStatement(update.MustParse(`delete /root//c`)); err != nil {
		t.Fatalf("apply after cancelled pass: %v", err)
	}
	for i, mv := range mvs {
		if !e.CheckView(mv) {
			t.Fatalf("view %s inconsistent after follow-up statement", views[i])
		}
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
	wantID := vs.Rows[0][0].Entries[1].ID
	if got := snap.Doc().NodeByID(wantID); got == nil || got.StringValue() != "5" {
		t.Fatal("snapshot row does not resolve against the snapshot document")
	}
	xmlBefore := snap.DocXML()

	for i := 0; i < 3; i++ {
		if _, err := e.ApplyStatement(update.MustParse(`insert <b>9</b> into /root/a`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ApplyStatement(update.MustParse(`delete /root/a/b`)); err != nil {
		t.Fatal(err)
	}

	if vs.Rows.Len() != 1 || vs.Rows[0][0].Entries[1].Val != "5" {
		t.Fatal("mutations reached a published snapshot's rows")
	}
	if got := snap.Doc().NodeByID(wantID); got == nil || got.StringValue() != "5" {
		t.Fatal("mutations reached a published snapshot's document")
	}
	if snap.DocXML() != xmlBefore {
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
