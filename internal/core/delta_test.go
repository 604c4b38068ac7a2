package core

import (
	"runtime"
	"slices"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestOneDeltaWalkPerStatement: the ∆ tables are built by one walk per
// statement, over the labels of every view, whatever the number of views —
// one statement-level compute_delta span for an insert and for a delete,
// two for a replace (one per half). core.phase.compute_delta observes that
// walk once and each propagated view's read of the tables once.
func TestOneDeltaWalkPerStatement(t *testing.T) {
	for _, views := range [][]string{
		{`//a{ID}//b{ID}`},
		{`//a{ID}//b{ID}`, `//a{ID}`, `//b{ID,val}`, `//*{ID}/b{ID}`, `//a{ID}//~x{ID}`, `/r{ID}//a{ID}`, `//b{ID}[val="x"]`},
	} {
		tr := &obs.CollectTracer{}
		reg := obs.New()
		e := New(mustDoc(t, `<r><a><b>x</b></a></r>`), WithMetrics(reg), WithTracer(tr))
		for _, v := range views {
			addView(t, e, v)
		}
		cd := reg.Histogram("core.phase." + obs.PhaseComputeDelta)
		for _, c := range []struct {
			stmt  string
			walks int
		}{
			{`insert <b>x y</b> into /r/a`, 1},
			{`delete /r/a/b`, 1},
			{`replace /r/a with <a><b>x</b></a>`, 2},
		} {
			tr.Reset()
			before := cd.Count()
			rep := apply(t, e, c.stmt)
			walks := 0
			for _, sp := range tr.Spans() {
				if sp.Name == obs.PhaseComputeDelta {
					walks++
				}
			}
			if walks != c.walks {
				t.Errorf("%d views, %s: %d compute_delta walks, want %d", len(views), c.stmt, walks, c.walks)
			}
			if got, want := cd.Count()-before, int64(c.walks+c.walks*len(views)); got != want {
				t.Errorf("%d views, %s: compute_delta observed %d times, want %d", len(views), c.stmt, got, want)
			}
			if rep.Timings().ComputeDelta < rep.ComputeDelta {
				t.Errorf("%s: the walk is missing from the report: %+v", c.stmt, rep.Timings())
			}
			checkViews(t, e, c.stmt)
		}
	}
}

// TestDeleteGateIsPerView: CD−'s gate — some label of this view's pattern,
// stored or not, has a ∆ entry before σ — reads the view's own slots of
// the shared tables. That the tables hold entries for another view says
// nothing about this one: were it taken to, every view would pay the cover
// scans on every delete. A σ that filters every entry out leaves the gate
// open (TestLabelGatesKeepWhatTheyMust has the rows that need it).
func TestDeleteGateIsPerView(t *testing.T) {
	d := mustDoc(t, `<r><a><b>x</b></a><c><d/></c></r>`)
	e := New(d, WithMetrics(obs.New()))
	ab := addView(t, e, `//a{ID}//b{ID}`)
	cd := addView(t, e, `//c{ID}//d{ID}`)
	pred := addView(t, e, `//r{ID}[//b[val="y"]]`)
	b := d.Labeled("b")[0]
	var delta update.Delta
	delta.Fill([]*xmltree.Node{b}, &e.labels)
	if len(delta.Table(ab.slots[1])) != 1 {
		t.Fatal("the forest's b is missing from the shared tables")
	}
	for _, c := range []struct {
		mv    *ManagedView
		bound bool
	}{{ab, true}, {cd, false}, {pred, true}} {
		in, bound := e.viewDelta(c.mv, delta)
		if bound != c.bound {
			t.Errorf("view %s: gate %v, want %v", c.mv.Name, bound, c.bound)
		}
		if !bound && e.m.countDeltaItems(in) != 0 {
			t.Errorf("view %s: closed gate with ∆ entries", c.mv.Name)
		}
	}
}

// TestSharedDeltaIsReadOnly: every view reads its ∆ inputs from the one set
// of tables a statement builds, so an append to one view's input must land
// neither in the tables nor in another view's input.
func TestSharedDeltaIsReadOnly(t *testing.T) {
	d := mustDoc(t, `<r><a><b>x</b></a></r>`)
	e := New(d, WithMetrics(obs.New()))
	views := []string{`//a{ID}//b{ID}`, `//b{ID}`, `//*{ID}//b{ID,val}`, `//a{ID}//~x{ID}`, `//b{ID}[val="x y"]`}
	var mvs []*ManagedView
	for _, v := range views {
		mvs = append(mvs, addView(t, e, v))
	}
	forest, err := xmltree.ParseForest(`<a><b>x y</b><b>x</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.ApplyInsert(d.Root, forest[0])
	if err != nil {
		t.Fatal(err)
	}
	var delta update.Delta
	delta.Fill([]*xmltree.Node{cp}, &e.labels)
	tables := func() [][]algebra.Item {
		var out [][]algebra.Item
		for _, mv := range mvs {
			for _, s := range mv.slots {
				out = append(out, slices.Clone(delta.Table(s)))
			}
		}
		return out
	}
	inputs := func(mv *ManagedView) algebra.Inputs {
		in, _ := e.viewDelta(mv, delta)
		return slices.Clone(in)
	}
	wantTables := tables()
	var want []algebra.Inputs
	for _, mv := range mvs {
		want = append(want, inputs(mv))
	}

	in, _ := e.viewDelta(mvs[0], delta)
	for j := range in {
		in[j] = append(in[j], algebra.Item{})
	}
	for s, tb := range tables() {
		if !slices.Equal(tb, wantTables[s]) {
			t.Fatalf("slot %d: an append to a view's input reached the shared table", s)
		}
	}
	for i, mv := range mvs {
		got := inputs(mv)
		for j := range got {
			if !slices.Equal(got[j], want[i][j]) {
				t.Fatalf("view %s node %d: input changed after another view's append", views[i], j)
			}
		}
	}

	// The same tables, end to end: propagating statements that bind every
	// view's labels keeps every view equal to recomputation.
	if _, err := d.ApplyDelete(cp); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{`insert <a><b>x y</b><b>x</b></a> into /r`, `replace /r/a/b with <b>x y</b>`, `delete /r/a`} {
		apply(t, e, st)
		checkViews(t, e, st)
	}
}

// TestUnaffectedViewCostsNoBookkeeping holds what a view costs a statement
// that leaves it alone: the benchmark's xnote pair under a category, which
// no view covers, on the 100 KB document, with the benchmark's seven views
// and with fourteen (the same patterns twice). Each added view reads the
// statement's shared ∆ tables, finds nothing of its own, and stops: ~115 B
// a view a statement, where walking the forest for its own tables and
// filling a table map, an input map, a phase map and a relation map took
// ~1,000. The least of five tries.
func TestUnaffectedViewCostsNoBookkeeping(t *testing.T) {
	ins := update.MustParse(`insert <xnote><xtext>bench</xtext></xnote> into /site/categories/category[@id="category0"]`)
	del := update.MustParse(`delete /site/categories/category[@id="category0"]/xnote`)
	const pairs = 20
	perPair := func(copies int) uint64 {
		doc := mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1}))
		e := New(doc, WithMetrics(obs.New()))
		for c := range copies {
			for _, v := range benchViews {
				if _, err := e.AddView(v[0]+string(rune('a'+c)), pattern.MustParse(v[1])); err != nil {
					t.Fatal(err)
				}
			}
		}
		run := func() {
			for range pairs {
				for _, st := range []*update.Statement{ins, del} {
					if _, err := e.ApplyStatement(st); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		run() // program cache, array room
		least := ^uint64(0)
		for range 5 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		checkViews(t, e, "after the xnote pairs")
		return least
	}
	seven, fourteen := perPair(1), perPair(2)
	perView := (int64(fourteen) - int64(seven)) / int64(len(benchViews)*2*pairs)
	t.Logf("%d B a statement with seven views, %d with fourteen: %d B a view a statement",
		seven/(2*pairs), fourteen/(2*pairs), perView)
	if perView > 512 {
		t.Errorf("a view the statement leaves alone costs %d B a statement, budget 512", perView)
	}
}

// TestRecordViewObservesPropagatedPhases: a view's phases are fixed fields,
// and core.phase.<phase> observes the four view phases of a view that was
// propagated — never of one cancelled or panicked, which ran none.
func TestRecordViewObservesPropagatedPhases(t *testing.T) {
	reg := obs.New()
	m := newEngineMetrics(reg)
	hist := func(phase string) *obs.Histogram { return reg.Histogram("core.phase." + phase) }
	vr := ViewReport{Phases: Timings{ComputeDelta: 2, GetExpression: 3, ExecuteUpdate: 4, UpdateLattice: 5}}
	m.recordView(&vr)
	for _, ph := range []struct {
		name string
		want int64
	}{
		{obs.PhaseFindTargets, 0},
		{obs.PhaseComputeDelta, 2},
		{obs.PhaseGetExpression, 3},
		{obs.PhaseExecuteUpdate, 4},
		{obs.PhaseUpdateLattice, 5},
	} {
		if got := int64(hist(ph.name).Sum()); got != ph.want {
			t.Errorf("%s: observed %d, want %d", ph.name, got, ph.want)
		}
	}
	m.recordView(&ViewReport{Panicked: true})
	for _, ph := range obs.Phases {
		want := int64(1)
		if ph == obs.PhaseFindTargets {
			want = 0 // a statement's, never a view's
		}
		if got := hist(ph).Count(); got != want {
			t.Errorf("%s observed %d times, want %d", ph, got, want)
		}
	}
	var sum Timings
	sum.Add(vr.Phases)
	sum.Add(vr.Phases)
	if sum.Total() != 2*vr.Phases.Total() || vr.Phases.Total() != 14 {
		t.Errorf("timings add to %v, want %v", sum.Total(), 2*vr.Phases.Total())
	}
}
