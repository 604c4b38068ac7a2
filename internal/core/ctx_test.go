package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/update"
)

// cancelOnSpan is a tracer that cancels a context the Nth time a span whose
// name matches the prefix starts — a deterministic way to cancel mid-pass
// without sleeping.
type cancelOnSpan struct {
	prefix string
	after  int // cancel when the (after+1)-th matching span starts
	cancel context.CancelFunc
	seen   int
}

type noopSpan struct{}

func (noopSpan) End() {}

func (c *cancelOnSpan) StartSpan(name string) obs.Span {
	if strings.HasPrefix(name, c.prefix) {
		if c.seen == c.after {
			c.cancel()
		}
		c.seen++
	}
	return noopSpan{}
}

// TestCtxPreCancelled: a context cancelled before the call aborts cleanly —
// no document mutation, no view change.
func TestCtxPreCancelled(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := New(d, WithMetrics(obs.New()))
	mv := addView(t, e, `//a{ID}//b{ID}`)
	before := mv.View.Len()
	nodes := d.Size()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := e.ApplyStatementCtx(ctx, update.MustParse(`insert <b/> into /root/a`))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("got a report from a pre-cancelled call: %+v", rep)
	}
	if d.Size() != nodes {
		t.Fatal("document mutated despite pre-cancellation")
	}
	if mv.View.Len() != before || !e.CheckView(mv) {
		t.Fatal("view changed despite pre-cancellation")
	}
}

// TestCtxCancelMidPass cancels while views are being propagated: the first
// view propagates algebraically, the rest are marked Cancelled and repaired
// by recomputation. Whatever the mix, every surviving view must equal a
// from-scratch recomputation afterwards — the engine never returns from a
// cancelled pass in a corrupt state.
func TestCtxCancelMidPass(t *testing.T) {
	for _, kind := range []string{
		`insert <b><c>5</c></b> into /root/a`,
		`delete /root//b`,
	} {
		reg := obs.New()
		ctx, cancel := context.WithCancel(context.Background())
		tr := &cancelOnSpan{prefix: "view:", after: 1, cancel: cancel}
		rng := rand.New(rand.NewSource(23))
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d, WithMetrics(reg), WithTracer(tr))
		views := []string{
			`//a{ID}//b{ID}`,
			`//a{ID}[//b{ID}//c{ID}]//d{ID}`,
			`//root{ID}/a{ID,val}`,
			`//a{ID}//b{ID,cont}`,
		}
		var mvs []*ManagedView
		for _, v := range views {
			mvs = append(mvs, addView(t, e, v))
		}

		rep, err := e.ApplyStatementCtx(ctx, update.MustParse(kind))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", kind, err)
		}
		if rep == nil {
			t.Fatalf("%s: mid-pass cancellation must still return the report", kind)
		}
		cancelled := 0
		for _, vr := range rep.Views {
			if vr.Cancelled {
				cancelled++
			}
		}
		if cancelled == 0 {
			t.Fatalf("%s: no view was cancelled (tracer saw %d view spans)", kind, tr.seen)
		}
		if got := reg.CounterValue("core.views.cancelled"); got != int64(cancelled) {
			t.Fatalf("%s: views.cancelled counter %d vs report %d", kind, got, cancelled)
		}
		// The update itself is applied; every view — propagated or repaired
		// — must match recomputation over the updated document.
		for i, mv := range mvs {
			if !e.CheckView(mv) {
				t.Fatalf("%s: view %s inconsistent after cancelled pass", kind, views[i])
			}
		}
		cancel()
	}
}

// TestCtxCancelBetweenReplaceHalves: cancelling during the delete half of a
// replace stops the insert half; views stay consistent with the
// half-replaced document.
func TestCtxCancelBetweenReplaceHalves(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelOnSpan{prefix: "view:", after: 0, cancel: cancel}
	d := mustDoc(t, `<root><a><b>old</b></a><a><b>old</b></a></root>`)
	e := New(d, WithMetrics(obs.New()), WithTracer(tr))
	mv := addView(t, e, `//a{ID}/b{ID,val}`)

	_, err := e.ApplyStatementCtx(ctx, update.MustParse(`replace //a/b with <b>new</b>`))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The delete half ran (and was repaired), the insert half never did: no
	// b nodes remain.
	if !e.CheckView(mv) {
		t.Fatal("view inconsistent after cancelled replace")
	}
	if mv.View.Len() != 0 {
		t.Fatalf("insert half ran after cancellation: %d rows", mv.View.Len())
	}
}

// TestCtxCancelBetweenViews: views propagate one after another, so a
// cancellation that fires inside one view's propagation lets that view
// finish and cancels every later one — the cancelled views are a suffix of
// the report — and every view, propagated or repaired, stays consistent.
func TestCtxCancelBetweenViews(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		tr := &cancelOnSpan{prefix: "view:", after: trial % 4, cancel: cancel}
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d, WithMetrics(obs.New()), WithTracer(tr))
		views := []string{
			`//a{ID}//b{ID}`, `//a{ID}[//b{ID}//c{ID}]//d{ID}`,
			`//root{ID}/a{ID,val}`, `//a{ID}//b{ID,cont}`, `//a{ID}[val="5"]//b{ID}`,
		}
		var mvs []*ManagedView
		for _, v := range views {
			mvs = append(mvs, addView(t, e, v))
		}
		stmt := randomStatement(rng)
		rep, err := e.ApplyStatementCtx(ctx, update.MustParse(stmt))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d (%s): err = %v, want context.Canceled", trial, stmt, err)
		}
		if rep != nil { // a replace cancelled in its delete half reports nothing
			if rep.Views[0].Cancelled || !rep.Views[len(rep.Views)-1].Cancelled {
				t.Fatalf("trial %d (%s): the first view must propagate and the last be cancelled", trial, stmt)
			}
			for i := 1; i < len(rep.Views); i++ {
				if rep.Views[i-1].Cancelled && !rep.Views[i].Cancelled {
					t.Fatalf("trial %d (%s): view %d propagated after view %d was cancelled", trial, stmt, i, i-1)
				}
			}
		}
		for i, mv := range mvs {
			if !e.CheckView(mv) {
				t.Fatalf("trial %d (%s): view %s inconsistent", trial, stmt, views[i])
			}
		}
		cancel()
	}
}

// TestApplyPULCtx covers the PUL-level context entry point.
func TestApplyPULCtx(t *testing.T) {
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := New(d, WithMetrics(obs.New()))
	mv := addView(t, e, `//a{ID}//b{ID}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pul, err := update.ComputePUL(e.Doc, update.MustParse(`insert <b/> into /root/a`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyPULCtx(ctx, pul); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.ApplyPULCtx(context.Background(), pul); err != nil {
		t.Fatal(err)
	}
	if !e.CheckView(mv) {
		t.Fatal("view diverged")
	}
}

// TestTracedMixedStream exercises the functional-option constructor with a
// shared collecting tracer and a mixed insert/delete/replace stream over
// five views.
func TestTracedMixedStream(t *testing.T) {
	var tr obs.CollectTracer
	rng := rand.New(rand.NewSource(57))
	labels := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 4; trial++ {
		d := mustDoc(t, randomXML(rng, 3, 4))
		e := New(d,
			WithMetrics(obs.New()),
			WithTracer(&tr),
			WithPolicy(PolicySnowcaps),
		)
		views := []string{
			`//a{ID}//b{ID}`, `//a{ID}[//b{ID}//c{ID}]//d{ID}`,
			`//root{ID}/a{ID,val}`, `//a{ID}//b{ID,cont}`, `//a{ID}[val="5"]//b{ID}`,
		}
		var mvs []*ManagedView
		for _, v := range views {
			mvs = append(mvs, addView(t, e, v))
		}
		for step := 0; step < 6; step++ {
			var stmt string
			if step%3 == 2 {
				l := labels[rng.Intn(len(labels))]
				stmt = "replace /root//" + l + " with <" + l + ">5<b/></" + l + ">"
			} else {
				stmt = randomStatement(rng)
			}
			if _, err := e.ApplyStatement(update.MustParse(stmt)); err != nil {
				t.Fatalf("trial %d step %d (%s): %v", trial, step, stmt, err)
			}
			for i, mv := range mvs {
				if !e.CheckView(mv) {
					t.Fatalf("trial %d step %d (%s): view %s diverged", trial, step, stmt, views[i])
				}
			}
		}
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("tracer collected nothing")
	}
}
