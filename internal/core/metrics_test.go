package core

import (
	"math/rand"
	"strings"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/update"
)

// counter reads one counter from a registry by its exact name.
func counter(t *testing.T, m *obs.Metrics, name string) int64 {
	t.Helper()
	return m.CounterValue(name)
}

// TestStaticPruneCounters: Proposition 3.3 / 4.2 accounting at view
// development time. For //a//b//c there are 2^3−1 = 7 candidate terms and 3
// survivors, so 4 are statically pruned on each side.
func TestStaticPruneCounters(t *testing.T) {
	reg := obs.New()
	d := mustDoc(t, `<r><a><b><c/></b></a></r>`)
	e := New(d, WithMetrics(reg))
	addView(t, e, `//a{ID}//b{ID}//c{ID}`)
	if got := counter(t, reg, "core.prune.prop33"); got != 4 {
		t.Fatalf("prop33 = %d, want 4", got)
	}
	if got := counter(t, reg, "core.prune.prop42"); got != 4 {
		t.Fatalf("prop42 = %d, want 4", got)
	}
}

// TestMetricsInvariants drives a mixed statement stream through several
// views on a private registry and locks the cross-counter invariants:
// every expanded union term is either evaluated or pruned by exactly one
// data-driven proposition, the prune totals match the per-report term
// accounting, row counters match the reports, and every propagation phase
// plus the join/scan machinery recorded activity.
func TestMetricsInvariants(t *testing.T) {
	reg := obs.New()
	rng := rand.New(rand.NewSource(17))
	d := mustDoc(t, randomXML(rng, 3, 4))
	e := New(d, WithMetrics(reg))
	views := []string{
		`//a{ID}//b{ID}`,
		`//a{ID}[//b{ID}//c{ID}]//d{ID}`,
		`//root{ID}/a{ID,val}`,
		`//a{ID}//b{ID,cont}`,
	}
	for _, v := range views {
		addView(t, e, v)
	}

	var termsTotal, termsSurvived int64
	var added, removed, modified int64
	stmts := []string{
		`insert <b><c>5</c></b> into /root/a`,
		`delete /root//b`,
		`insert <a><b/><d/></a> into /root`,
		`replace /root/a with <a><b>5</b></a>`,
		`delete /root//d`,
		`insert <d/> into /root//c`,
	}
	for _, s := range stmts {
		rep, err := e.ApplyStatement(update.MustParse(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, vr := range rep.Views {
			termsTotal += int64(vr.TermsTotal)
			termsSurvived += int64(vr.TermsSurvived)
			added += int64(vr.RowsAdded)
			removed += int64(vr.RowsRemoved)
			modified += int64(vr.RowsModified)
		}
	}

	expanded := counter(t, reg, "core.terms.expanded")
	evaluated := counter(t, reg, "core.terms.evaluated")
	pruned := counter(t, reg, "core.prune.prop36") +
		counter(t, reg, "core.prune.prop38") +
		counter(t, reg, "core.prune.prop47")
	if expanded != evaluated+pruned {
		t.Fatalf("term accounting broken: expanded %d != evaluated %d + pruned %d",
			expanded, evaluated, pruned)
	}
	if expanded != termsTotal || evaluated != termsSurvived {
		t.Fatalf("counters disagree with reports: expanded %d/%d evaluated %d/%d",
			expanded, termsTotal, evaluated, termsSurvived)
	}
	if pruned != termsTotal-termsSurvived {
		t.Fatalf("pruned %d != dropped terms %d", pruned, termsTotal-termsSurvived)
	}
	if got := counter(t, reg, "core.rows.added"); got != added {
		t.Fatalf("rows.added %d vs reports %d", got, added)
	}
	if got := counter(t, reg, "core.rows.removed"); got != removed {
		t.Fatalf("rows.removed %d vs reports %d", got, removed)
	}
	if got := counter(t, reg, "core.rows.modified"); got != modified {
		t.Fatalf("rows.modified %d vs reports %d", got, modified)
	}
	// Replace counts once as replace, not as its delete+insert halves.
	if ins, del, repl := counter(t, reg, "core.statements.insert"),
		counter(t, reg, "core.statements.delete"),
		counter(t, reg, "core.statements.replace"); ins != 3 || del != 2 || repl != 1 {
		t.Fatalf("statement counters %d/%d/%d, want 3/2/1", ins, del, repl)
	}

	// Every propagation phase must have observed real work.
	snap := reg.Snapshot()
	phaseCounts := map[string]int64{}
	for _, h := range snap.Histograms {
		if name, ok := strings.CutPrefix(h.Name, "core.phase."); ok {
			phaseCounts[name] = h.Count
		}
	}
	for _, phase := range obs.Phases {
		if phaseCounts[phase] == 0 {
			t.Fatalf("phase %s never observed (histograms: %+v)", phase, phaseCounts)
		}
	}

	// The underlying machinery also left a trail.
	for _, name := range []string{
		"algebra.join.calls", "algebra.join.tuples_scanned", "algebra.project.rows",
		"store.scan.count", "store.scan.items", "core.delta.items", "core.targets",
	} {
		if counter(t, reg, name) == 0 {
			t.Fatalf("counter %s stayed zero", name)
		}
	}
}

// TestMetricsIsolation: engines with private registries do not leak into
// each other or into the process default.
func TestMetricsIsolation(t *testing.T) {
	r1, r2 := obs.New(), obs.New()
	d1 := mustDoc(t, `<root><a><b/></a></root>`)
	d2 := mustDoc(t, `<root><a><b/></a></root>`)
	e1 := New(d1, WithMetrics(r1))
	e2 := New(d2, WithMetrics(r2))
	addView(t, e1, `//a{ID}//b{ID}`)
	addView(t, e2, `//a{ID}//b{ID}`)
	apply(t, e1, `insert <b/> into /root/a`)
	if got := counter(t, r1, "core.statements.insert"); got != 1 {
		t.Fatalf("r1 insert count %d", got)
	}
	if got := r2.CounterValue("core.statements.insert"); got != 0 {
		t.Fatalf("r2 saw e1's statement: %d", got)
	}
}

// TestTracerSpans: a collecting tracer sees the statement, phase and view
// spans of a propagation pass.
func TestTracerSpans(t *testing.T) {
	var tr obs.CollectTracer
	d := mustDoc(t, `<root><a><b/></a></root>`)
	e := New(d, WithMetrics(obs.New()), WithTracer(&tr))
	addView(t, e, `//a{ID}//b{ID}`)
	apply(t, e, `insert <b/> into /root/a`)
	want := map[string]bool{
		"apply:insert":        false,
		obs.PhaseFindTargets:  false,
		"view://a{ID}//b{ID}": false,
		"view://a{ID}//b{ID}/" + obs.PhaseExecuteUpdate: false,
	}
	for _, sp := range tr.Spans() {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.Duration < 0 {
			t.Fatalf("span %s has negative duration", sp.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q never traced; got %d spans", name, len(tr.Spans()))
		}
	}
}
