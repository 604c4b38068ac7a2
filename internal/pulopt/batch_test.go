package pulopt

import (
	"errors"
	"testing"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

func planEngine(t *testing.T, src string) *core.Engine {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return core.New(d)
}

func stmts(t *testing.T, srcs ...string) []*update.Statement {
	t.Helper()
	out := make([]*update.Statement, len(srcs))
	for i, s := range srcs {
		st, err := update.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out[i] = st
	}
	return out
}

// TestPlanBatchEquivalence: a clean batch applied through ApplyBatch
// produces the same document and the same final version as sequential
// statement application.
func TestPlanBatchEquivalence(t *testing.T) {
	const doc = `<r><a><k/></a><b/><c><d/></c></r>`
	batch := []string{
		`insert <x><y/></x> into /r/a`,
		`insert <z/> into /r/b`,
		`delete /r/c/d`,
		`insert <w/> into /r/c`,
	}

	e1 := planEngine(t, doc)
	if _, err := e1.AddView("v", pattern.MustParse(`//a{ID}//y{ID}`)); err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts(t, batch...) {
		if _, err := e1.ApplyStatement(st); err != nil {
			t.Fatal(err)
		}
	}

	e2 := planEngine(t, doc)
	v2, err := e2.AddView("v", pattern.MustParse(`//a{ID}//y{ID}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanBatch(e2, stmts(t, batch...))
	if err != nil {
		t.Fatalf("PlanBatch: %v", err)
	}
	// ins,ins | del | ins → three same-kind runs.
	if len(plan.Units) != 3 {
		t.Fatalf("units = %d, want 3 (%+v)", len(plan.Units), plan.Units)
	}
	if plan.Units[0].Statements != 2 || plan.Units[1].Statements != 1 || plan.Units[2].Statements != 1 {
		t.Fatalf("unit statement counts: %+v", plan.Units)
	}
	rep, applied, err := e2.ApplyBatch(plan.Units)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(batch) {
		t.Fatalf("applied %d statements, want %d", applied, len(batch))
	}
	if rep.Targets == 0 {
		t.Fatal("merged report lost target counts")
	}
	if e1.Doc.String() != e2.Doc.String() {
		t.Fatalf("documents differ\nsequential: %s\nbatched:    %s", e1.Doc, e2.Doc)
	}
	if e1.Version() != e2.Version() {
		t.Fatalf("versions differ: sequential %d, batched %d", e1.Version(), e2.Version())
	}
	if !e2.CheckView(v2) {
		t.Fatal("batched view inconsistent with recomputation")
	}
}

// TestPlanBatchGates exercises every planner rejection, checking both the
// sentinel and the reason.
func TestPlanBatchGates(t *testing.T) {
	const doc = `<r><a><k/></a><b/><x/></r>`
	cases := []struct {
		name   string
		batch  []string
		reason string
	}{
		{"replace", []string{
			`insert <y/> into /r/a`,
			`replace /r/b with <b2/>`,
		}, "replace"},
		{"copyof beyond first", []string{
			`insert <y/> into /r/a`,
			`insert /r/a into /r/b`,
		}, "copyof"},
		{"predicate path", []string{
			`insert <y/> into /r/a`,
			`delete /r/a[k]`,
		}, "path"},
		{"wildcard path", []string{
			`insert <y/> into /r/a`,
			`delete /r/*`,
		}, "path"},
		{"label overlap", []string{
			`insert <x/> into /r/a`,
			`delete //x`,
		}, "label-overlap"},
		{"insert into deleted (LO)", []string{
			`delete /r/b`,
			`insert <y/> into /r/b`,
		}, "conflict"},
		{"insert under deleted (NLO)", []string{
			`delete /r/a`,
			`insert <y/> into /r/a/k`,
		}, "conflict"},
		{"same-target inserts (IO)", []string{
			`insert <y/> into /r/b`,
			`insert <z/> into /r/b`,
		}, "conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := planEngine(t, doc)
			_, err := PlanBatch(e, stmts(t, tc.batch...))
			if !errors.Is(err, ErrNotBatchable) {
				t.Fatalf("err = %v, want ErrNotBatchable", err)
			}
			var nb *NotBatchableError
			if !errors.As(err, &nb) || nb.Reason != tc.reason {
				t.Fatalf("reason = %v, want %s", err, tc.reason)
			}
		})
	}
}

// TestPlanBatchDropsCoveredDeletes: a delete whose target an earlier
// statement's deletion already covers is dropped — sequential execution
// would no longer see the node — and the run still accounts for both
// statements.
func TestPlanBatchDropsCoveredDeletes(t *testing.T) {
	e := planEngine(t, `<r><a><k/></a><b/></r>`)
	plan, err := PlanBatch(e, stmts(t,
		`delete /r/a`,
		`delete /r/a/k`,
	))
	if err != nil {
		t.Fatalf("PlanBatch: %v", err)
	}
	if len(plan.Units) != 1 || plan.Units[0].Statements != 2 {
		t.Fatalf("units = %+v", plan.Units)
	}
	if got := len(plan.Units[0].PUL.Deletes); got != 1 {
		t.Fatalf("combined delete targets = %d, want 1 (covered delete kept)", got)
	}

	// Sequential equivalence including the version count. The plan's PULs
	// reference e's own nodes, so it applies to the engine it was planned
	// against.
	if _, applied, err := e.ApplyBatch(plan.Units); err != nil || applied != 2 {
		t.Fatalf("batch apply: applied=%d err=%v", applied, err)
	}
	if e.Version() != 2 {
		t.Fatalf("version = %d, want 2", e.Version())
	}
	if got := e.Doc.String(); got != `<r><b/></r>` {
		t.Fatalf("doc = %s", got)
	}
}

// TestApplyRunFolds: one fold for every shape of run. A translated run
// shares one report; a rejected run names the gate and fails only the
// statement the engine rejects; a run whose second unit fails goes on one
// statement at a time from the boundary the first unit reached. Each ends
// where sequential application does.
func TestApplyRunFolds(t *testing.T) {
	const doc = `<r><a><k/></a><b/><c><d/></c></r>`
	cases := []struct {
		name       string
		run        []string
		failUnit   bool
		translated bool
		reason     string
		failed     int // index of the one statement the engine rejects, or -1
	}{
		{"translated", []string{`insert <x/> into /r/a`, `insert <z/> into /r/b`, `delete /r/c/d`}, false, true, "", -1},
		{"rejected", []string{`insert <x/> into /r/a`, `delete /r`, `insert <z/> into /r/b`}, false, false, "compute", 1},
		{"failed unit", []string{`insert <x/> into /r/a`, `insert <z/> into /r/b`, `delete /r/c/d`}, true, true, "", -1},
		{"one statement", []string{`insert <x/> into /r/a`}, false, false, "", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.failUnit {
				ApplyUnits = func(e *core.Engine, units []core.BatchPUL) (*core.Report, int, error) {
					rep, n, err := e.ApplyBatch(units[:1])
					if err == nil {
						err = errors.New("injected unit failure")
					}
					return rep, n, err
				}
				defer func() { ApplyUnits = (*core.Engine).ApplyBatch }()
			}
			twin := planEngine(t, doc)
			for _, st := range stmts(t, tc.run...) {
				_, _ = twin.ApplyStatement(st)
			}
			e := planEngine(t, doc)
			run := ApplyRun(e, stmts(t, tc.run...), nil)
			if run.Translated != tc.translated || run.Reason != tc.reason || (run.UnitErr != nil) != tc.failUnit {
				t.Fatalf("translated %v, reason %q, unit error %v", run.Translated, run.Reason, run.UnitErr)
			}
			if len(run.Results) != len(tc.run) {
				t.Fatalf("%d results for %d statements", len(run.Results), len(tc.run))
			}
			for i, r := range run.Results {
				if (r.Err != nil) != (i == tc.failed) || (r.Err == nil) != (r.Report != nil) {
					t.Fatalf("statement %d: report %v, err %v", i, r.Report, r.Err)
				}
			}
			if tc.translated && !tc.failUnit && run.Results[0].Report != run.Results[len(tc.run)-1].Report {
				t.Fatal("a translated run's statements do not share its report")
			}
			if e.Doc.String() != twin.Doc.String() || e.Version() != twin.Version() {
				t.Fatalf("folded to %s at %d, sequential %s at %d", e.Doc, e.Version(), twin.Doc, twin.Version())
			}
		})
	}
}
