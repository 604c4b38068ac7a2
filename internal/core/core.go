// Package core implements the paper's contribution: algebraic, set-oriented
// propagation of statement-level XML updates to materialized tree-pattern
// views. It provides the union-term machinery with its pruning rules
// (Propositions 3.3, 3.6, 3.8 for insertions; 4.2, 4.3, 4.7 for deletions),
// the snowcap lattice with the Snowcaps and Leaves materialization policies,
// and the propagation algorithms PINT (Alg. 1), CD+ (Alg. 2), ET-INS
// (Alg. 3), PIMT (Alg. 4), PDDT (Alg. 5) and the combined PDDT/MT (Alg. 6),
// together with a full-recomputation baseline and the IVMA node-at-a-time
// competitor used in the experiments.
//
// Engines are observable: every propagation phase, prune decision, join and
// row mutation is recorded in an obs.Metrics registry (Engine.Metrics), and
// an optional obs.Tracer receives span start/finish events per statement,
// per phase and per view. A statement handed to the engine runs to
// completion; callers that honor deadlines check them before the call.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Policy selects which lattice nodes are materialized (Section 6.7).
type Policy uint8

const (
	// PolicyLeaves materializes nothing beyond the canonical relations: a
	// term reads each relation only where the ∆'s IDs say it can join
	// (Relations.Around). It is the policy of an engine built without
	// WithPolicy.
	PolicyLeaves Policy = iota
	// PolicySnowcaps materializes one snowcap per lattice level (plus the
	// leaves, which are the canonical relations themselves), which a term
	// whose R-mask is one reads instead: the paper's Figs. 29/30.
	PolicySnowcaps
)

func (p Policy) String() string {
	if p == PolicyLeaves {
		return "leaves"
	}
	return "snowcaps"
}

// Engine owns a document, its store, and a set of maintained views.
type Engine struct {
	Doc   *xmltree.Document
	Store *store.Store
	Views []*ManagedView
	opts  options
	join  algebra.JoinFunc // physical join, instrumented
	m     *engineMetrics
	proj  algebra.ProjectCounters
	// labels is the union of every view's pattern labels, each with its
	// ∆-table slot: the label set a statement's one CD+/CD− walk extracts.
	labels update.Labels
	// sc is the running statement's scratch (scratch.go), nil between
	// statements.
	sc *scratch

	// version counts successfully applied mutation batches (statements,
	// PULs, baseline recomputations). It identifies
	// document states: two engines fed the same statement sequence reach
	// the same version at the same state, which is what lets snapshot
	// consumers key expected view contents by version. Atomic so readers
	// of a published Snapshot can compare against the live counter.
	version atomic.Uint64
}

// Version returns the number of mutation batches successfully applied to
// the document since construction. It advances exactly once per applied
// statement for inserts and deletes and twice for replaces (whose delete
// and insert halves are separate batches).
func (e *Engine) Version() uint64 { return e.version.Load() }

// bumpVersion marks one mutation batch applied; every path that mutates
// the document calls it after the document and store are consistent.
func (e *Engine) bumpVersion() { e.version.Add(1) }

// SetVersion overwrites the version counter. It exists for state restore
// paths — WAL recovery and replication catch-up seed a freshly built engine
// with the version recorded in the checkpoint manifest, so that replaying
// the same statement suffix reproduces not just the same document and views
// but the same version numbers a reader of the original engine saw. Never
// call it on an engine that is already serving.
func (e *Engine) SetVersion(v uint64) { e.version.Store(v) }

// ViewDef is what a view is in every epoch: its name, its pattern and the
// layout of its rows (Shape.Entry reads one). Made once when the view is
// installed, so an epoch pays a pointer a view for it; the view's
// store.View is laid out by the same Shape.
type ViewDef struct {
	Name    string
	Pattern *pattern.Pattern
	Shape   *algebra.Shape
}

// ManagedView is one materialized view under maintenance. Its ViewDef
// (name, pattern, row shape) is the one every epoch of the view points at.
type ManagedView struct {
	*ViewDef
	View    *store.View
	Lattice *Lattice
	// terms are developed once, when the view is created (first step of
	// Algorithm 1), and pruned per update; insertion and deletion keep the
	// same ones (InsertTerms).
	terms []uint64
	// Per-pattern constants, prepared at install and only read after, by
	// every statement: each node's ∆-table slot in Engine.labels, the
	// stored nodes as a mask and the cvn set.
	slots      []int
	storedMask uint64
	cvn        []int
}

// Metrics returns the registry the engine records into.
func (e *Engine) Metrics() *obs.Metrics { return e.m.reg }

// span starts a tracer span, returning its (nil-safe) finish function.
func (e *Engine) span(name string) func() { return obs.StartSpan(e.opts.Tracer, name) }

// newLattice builds a view's lattice under the engine's policy.
func (e *Engine) newLattice(p *pattern.Pattern) *Lattice {
	return NewLattice(p, e.opts.Policy, e.Store, e.Join())
}

// Join returns the engine's physical join function (the configured join
// wrapped with the algebra.join.* counters).
func (e *Engine) Join() algebra.JoinFunc { return e.join }

// NamedPattern is a view AddViews installs: its name and its pattern.
type NamedPattern struct {
	Name    string
	Pattern *pattern.Pattern
}

// AddViews installs views in order, each as AddView would, having first
// indexed every label their relations read in one walk of the document
// (Store.IndexFor) rather than a walk a label. A view that stores nothing
// fails the call before any is installed.
func (e *Engine) AddViews(views []NamedPattern) error {
	ps := make([]*pattern.Pattern, len(views))
	for i, v := range views {
		if len(v.Pattern.StoredIndexes()) == 0 {
			return fmt.Errorf("core: view %s stores nothing", v.Name)
		}
		ps[i] = v.Pattern
	}
	e.Store.IndexFor(ps)
	for _, v := range views {
		if _, err := e.AddView(v.Name, v.Pattern); err != nil {
			return err
		}
	}
	return nil
}

// AddView materializes a view over the current document and prepares its
// maintenance structures (term expansion and snowcap lattice).
func (e *Engine) AddView(name string, p *pattern.Pattern) (*ManagedView, error) {
	if len(p.StoredIndexes()) == 0 {
		return nil, fmt.Errorf("core: view %s stores nothing", name)
	}
	def := &ViewDef{Name: name, Pattern: p, Shape: algebra.NewShape(p)}
	// Every label the view reads gets a list, an empty one if no node
	// carries it yet: a reduced read of it at each statement is then a
	// look-up, not a walk. Under AddViews they are indexed already.
	e.Store.IndexFor([]*pattern.Pattern{p})
	// The pattern's inputs are read once, for the lattice and the view:
	// under snowcaps the view's relation is the chain's last level.
	in := e.Store.Inputs(p)
	lattice := &Lattice{Pattern: p, Policy: e.opts.Policy, store: e.Store, join: e.Join()}
	var block algebra.Block
	if lattice.Policy == PolicySnowcaps {
		block = lattice.materialize(in)
	} else {
		block = algebra.EvalPattern(p, in, e.Join())
	}
	rows := algebra.ProjectCounted(def.Shape, block, e.Doc, algebra.ProjectCounters{})
	mv := &ManagedView{
		ViewDef: def,
		View:    store.NewViewOf(def.Shape, rows),
		terms:   InsertTerms(p),
		slots:   labelSlots(&e.labels, p),
		cvn:     p.ContValIndexes(),
	}
	for _, i := range p.StoredIndexes() {
		mv.storedMask |= 1 << uint(i)
	}
	// Development-time pruning accounting: of the 2^k−1 candidate union
	// terms, Propositions 3.3 (insert) and 4.2 (delete) keep only the
	// upward-closed R-masks.
	candidates := int64(p.FullMask()) // 2^k − 1
	e.m.pruneProp33.Add(candidates - int64(len(mv.terms)))
	e.m.pruneProp42.Add(candidates - int64(len(mv.terms)))
	mv.Lattice = lattice
	e.Views = append(e.Views, mv)
	return mv, nil
}

// Timings is the per-phase cost breakdown of the paper's experiments
// (Fig. 18), one field per obs.Phases entry.
type Timings struct {
	FindTargets   time.Duration // locate target nodes (Saxon's role)
	ComputeDelta  time.Duration // build the ∆+ / ∆− tables (CD+/CD−)
	GetExpression time.Duration // unfold + prune the update expression
	ExecuteUpdate time.Duration // evaluate terms, apply to the view
	UpdateLattice time.Duration // refresh auxiliary structures
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.FindTargets + t.ComputeDelta + t.GetExpression + t.ExecuteUpdate + t.UpdateLattice
}

// Add accumulates another breakdown.
func (t *Timings) Add(o Timings) {
	t.FindTargets += o.FindTargets
	t.ComputeDelta += o.ComputeDelta
	t.GetExpression += o.GetExpression
	t.ExecuteUpdate += o.ExecuteUpdate
	t.UpdateLattice += o.UpdateLattice
}

// ViewReport describes the effect of one statement on one view.
type ViewReport struct {
	View *ManagedView
	// Phases is the per-view propagation cost. Target location and the ∆
	// tables' walk are shared across views and live on the Report
	// (Report.FindTargets, Report.ComputeDelta): here FindTargets is zero
	// and ComputeDelta is the view's σ-filtered read of the tables. A
	// view whose propagation panicked has none.
	Phases        Timings
	TermsTotal    int // terms before data-driven pruning
	TermsSurvived int // terms actually evaluated
	RowsAdded     int
	RowsRemoved   int
	RowsModified  int
	// Panicked reports that this view's propagation panicked (a bug in a
	// custom join, a corrupted lattice). The panic is contained to the
	// view: the engine repaired it by recomputation before returning, so a
	// long-lived writer loop survives a poisoned propagation path.
	Panicked bool
}

// Report describes the effect of one statement on the engine.
type Report struct {
	Statement *update.Statement
	Targets   int
	// FindTargets is the cost of locating the statement's target nodes,
	// and ComputeDelta of the one walk that builds its ∆ tables for every
	// view (twice for a replace: one per half). Both are paid once per
	// statement regardless of the number of views, which is why they live
	// here and not in the per-view breakdowns.
	FindTargets  time.Duration
	ComputeDelta time.Duration
	Views        []ViewReport
}

// reportPool holds reports a caller released, each with its Views array.
var reportPool = sync.Pool{New: func() any { return new(Report) }}

// newReport takes a report from the pool, empty, with its Views array.
func newReport() *Report {
	return reportPool.Get().(*Report)
}

// Release hands the report and its Views array back for a later statement
// to fill. The caller must hold no pointer into it from then on. A report
// nobody releases is the collector's, so releasing is for the callers that
// know they are its only holder, like the update handler once it has
// written the answer.
func (r *Report) Release() {
	clear(r.Views)
	*r = Report{Views: r.Views[:0]}
	reportPool.Put(r)
}

// Copy returns a report of the caller's own with r's contents, taken from
// the pool: a translated batch's statements share one merged report, and a
// caller that releases gives each of them a copy first.
func (r *Report) Copy() *Report {
	c := newReport()
	views := c.Views
	*c = *r
	c.Views = append(views, r.Views...)
	return c
}

// Timings returns the statement's cost per phase: the sum of every view's
// phases plus the shared costs, each counted once.
func (r *Report) Timings() Timings {
	t := Timings{FindTargets: r.FindTargets, ComputeDelta: r.ComputeDelta}
	for i := range r.Views {
		t.Add(r.Views[i].Phases)
	}
	return t
}

// ApplyStatement runs one update statement: it computes the pending update
// list, applies the update to the document, and incrementally propagates it
// to every managed view (PINT/PIMT for insertions, PDDT/PDMT for
// deletions). The document and store are updated exactly once. Once the
// document changes, the statement runs to completion, as its replay from a
// log would.
func (e *Engine) ApplyStatement(st *update.Statement) (*Report, error) {
	defer e.giveBack(e.lend())
	endStatement := e.span("apply:" + st.Kind.String())
	defer endStatement()
	t0 := time.Now()
	if st.Kind == update.Replace {
		e.m.stReplace.Inc()
		// Replace = the deletion stage then the insertion stage, each a
		// full algebraic propagation; reports are merged.
		endFind := e.span(obs.PhaseFindTargets)
		delPul, insPul, err := update.ExpandReplace(e.Doc, st)
		endFind()
		if err != nil {
			return nil, err
		}
		findTargets := time.Since(t0)
		e.m.phase[obs.PhaseFindTargets].Observe(findTargets)
		e.m.targets.Add(int64(delPul.Targets()))
		delRep, err := e.applyPUL(delPul)
		if err != nil {
			return nil, err
		}
		insRep, err := e.applyPUL(insPul)
		if err != nil {
			return nil, err
		}
		rep := newReport()
		MergeBatchReport(rep, delRep)
		MergeBatchReport(rep, insRep)
		delRep.Release()
		insRep.Release()
		rep.Statement, rep.Targets, rep.FindTargets = st, delPul.Targets(), findTargets
		return rep, nil
	}
	if st.Kind == update.Insert {
		e.m.stInsert.Inc()
	} else {
		e.m.stDelete.Inc()
	}
	endFind := e.span(obs.PhaseFindTargets)
	pul := &e.sc.pul
	err := pul.Compute(e.Doc, st)
	endFind()
	if err != nil {
		return nil, err
	}
	findTargets := time.Since(t0)
	e.m.phase[obs.PhaseFindTargets].Observe(findTargets)
	e.m.targets.Add(int64(pul.Targets()))

	rep, err := e.applyPUL(pul)
	if err != nil {
		return nil, err
	}
	rep.Statement = st
	rep.FindTargets = findTargets
	return rep, nil
}

// ApplyPUL propagates an already-computed pending update list: it applies
// the node-level operations to the document and incrementally maintains
// every view. This is the entry point used when PULs arrive pre-optimized
// (Section 5) rather than from a statement.
func (e *Engine) ApplyPUL(pul *update.PUL) (*Report, error) {
	return e.applyPUL(pul)
}

func (e *Engine) applyPUL(pul *update.PUL) (*Report, error) {
	defer e.giveBack(e.lend())
	sc := e.sc
	// What one unit of a batch or one half of a replace lent is dead once
	// it has propagated.
	defer sc.alg.Reset()
	sc.points, sc.touched = sc.points[:0], sc.touched[:0]
	// The σ membership of the predicate-labeled ancestors of the targets,
	// before the update: a node whose membership the update flips (text
	// added or removed below it) is propagated as a change of its σ-input
	// (predflip.go).
	e.probePredicates(pul)

	rep := newReport()
	rep.Targets = pul.Targets()
	applied, err := update.Apply(e.Doc, pul)
	if err != nil {
		rep.Release()
		return nil, err
	}
	e.findFlips()
	switch pul.Kind {
	case update.Insert:
		// Terms are evaluated against the canonical relations' membership
		// before the update and their content after it. The label index
		// already lists the inserted subtrees (and reads the spine copies
		// the insertion made), so the store hides them until every view's
		// lattice is maintained.
		e.Store.Hide(applied.InsertedRoots)
		delta := e.computeDelta(rep, applied.InsertedRoots)
		for _, pi := range pul.Inserts {
			sc.points = append(sc.points, pi.Target)
			sc.touched = append(sc.touched, pi.Target.ID())
		}
		rep.Views = e.propagateAll(rep.Views, func(vr *ViewReport) {
			*vr = e.propagateInsert(vr.View, delta)
		})
		e.Store.Hide(nil)
	case update.Delete:
		delta := e.computeDelta(rep, applied.DeletedRoots)
		sc.ids = sc.ids[:0]
		for _, r := range applied.DeletedRoots {
			sc.ids = append(sc.ids, r.ID())
			sc.touched = append(sc.touched, r.ID().Parent())
		}
		sc.cover.Reset(sc.ids)
		rep.Views = e.propagateAll(rep.Views, func(vr *ViewReport) {
			*vr = e.propagateDelete(vr.View, delta)
		})
	}
	// The flips go last, against the whole store.
	for i := range rep.Views {
		if vr := &rep.Views[i]; !vr.Panicked {
			if flips := sc.flipsOf(vr.View); len(flips) > 0 {
				e.contain(vr, func(vr *ViewReport) { e.propagateFlips(vr, flips) })
			}
		}
	}
	// A view whose propagation panicked mid-stream is repaired against the
	// whole store, by recomputation.
	for i := range rep.Views {
		if rep.Views[i].Panicked {
			e.m.viewsPanicked.Inc()
			e.recomputeFallback(rep.Views[i].View)
		}
		e.m.recordView(&rep.Views[i])
	}
	e.bumpVersion()
	return rep, nil
}

// recomputeFallback rebuilds one view (rows and lattice) from the current
// document state.
func (e *Engine) recomputeFallback(mv *ManagedView) {
	rows := e.RecomputeView(mv)
	mv.View = store.NewViewOf(mv.Shape, rows)
	mv.Lattice = e.newLattice(mv.Pattern)
}

// propagateAll runs one propagation function over every view, one view
// after another, each filling its own report, appended to dst[:0]. The
// document and store must be read-only for the duration (guaranteed by
// the ApplyPUL phase ordering).
func (e *Engine) propagateAll(dst []ViewReport, f func(*ViewReport)) []ViewReport {
	if dst = dst[:0]; cap(dst) < len(e.Views) {
		dst = make([]ViewReport, 0, len(e.Views))
	}
	for _, mv := range e.Views {
		dst = append(dst, ViewReport{View: mv})
		e.contain(&dst[len(dst)-1], f)
	}
	return dst
}

// contain runs one stage of a view's propagation on its report. A panic
// inside it is contained to the view: the report is marked Panicked and
// applyPUL repairs the view by recomputation, so a single poisoned view
// cannot take down the whole apply path.
func (e *Engine) contain(vr *ViewReport, f func(*ViewReport)) {
	defer func() {
		if r := recover(); r != nil {
			*vr = ViewReport{View: vr.View, Panicked: true}
		}
	}()
	defer e.viewSpan(vr.View, "")()
	f(vr)
}

// viewSpan starts view mv's span, or the span of one of its phases; with
// no tracer it builds no name.
func (e *Engine) viewSpan(mv *ManagedView, phase string) func() {
	if e.opts.Tracer == nil {
		return func() {}
	}
	name := "view:" + mv.Name
	if phase != "" {
		name += "/" + phase
	}
	return e.span(name)
}

// computeDelta builds the ∆ tables (CD+/CD−) of a statement's inserted or
// detached subtrees: one walk, over the labels of every view, whose tables
// every view then reads. Its cost is the report's ComputeDelta, observed
// once per statement in core.phase.compute_delta.
func (e *Engine) computeDelta(rep *Report, roots []*xmltree.Node) update.Delta {
	end := e.span(obs.PhaseComputeDelta)
	t0 := time.Now()
	e.sc.delta.Fill(roots, &e.labels)
	d := e.sc.delta
	rep.ComputeDelta = time.Since(t0)
	end()
	e.m.phase[obs.PhaseComputeDelta].Observe(rep.ComputeDelta)
	return d
}

// labelSlots adds p's labels to ls and returns each node's slot.
func labelSlots(ls *update.Labels, p *pattern.Pattern) []int {
	slots := make([]int, p.Size())
	for i, n := range p.Nodes {
		slots[i] = ls.Add(n.Label)
	}
	return slots
}

// hasDelta reports whether any of the slots has a ∆ entry before σ.
func hasDelta(d update.Delta, slots []int) bool {
	for _, s := range slots {
		if len(d.Table(s)) > 0 {
			return true
		}
	}
	return false
}

// deltaInputs reads p's ∆ inputs from the shared tables: σ-filtered by each
// node's value predicate, with the root-anchor filter applied (an inserted
// node can never be the document root, so a /-anchored pattern root always
// has an empty ∆). Unfiltered inputs are the tables themselves, capped;
// the rest is taken from sc.
func deltaInputs(sc *algebra.Scratch, p *pattern.Pattern, slots []int, d update.Delta, doc *xmltree.Document) algebra.Inputs {
	in := sc.Inputs(p.Size())
	for i, n := range p.Nodes {
		in[i] = sc.Filter(d.Table(slots[i]), n, doc)
	}
	in[0] = sc.FilterRootAnchor(p, in[0])
	return in
}

// noDelta is every view's ∆ input when none of its labels has a table
// entry: all empty, shared, never written (a pattern has at most 64 nodes).
var noDelta = make(algebra.Inputs, 64)

// viewDelta is deltaInputs for one view. bound reports whether any label of
// the view's pattern, stored or not, has a ∆ entry before σ; when none has,
// the inputs are the shared empty ones.
func (e *Engine) viewDelta(mv *ManagedView, d update.Delta) (in algebra.Inputs, bound bool) {
	if !hasDelta(d, mv.slots) {
		return noDelta[:mv.Pattern.Size():mv.Pattern.Size()], false
	}
	return deltaInputs(e.sc.algebra(), mv.Pattern, mv.slots, d, e.Doc), true
}

// evalTermFrom evaluates one union term: R-nodes (rmask) are read from a
// materialized snowcap when the lattice holds rmask's, and otherwise from
// the canonical relations, reduced to what joins the term's ∆
// (Relations.Around); ∆-nodes come from the delta inputs. The boundary
// edges become structural joins. Results are projected onto the view's
// stored nodes.
func (e *Engine) evalTermFrom(mv *ManagedView, rmask uint64, deltaIn algebra.Inputs, r *Relations) []algebra.Row {
	p := mv.Pattern
	full := p.FullMask()
	dmask := full &^ rmask
	sc := e.sc.algebra()
	var block algebra.Block
	if m := mv.Lattice.mats[rmask]; m != nil {
		block = sc.JoinForest(p, m.Block(), dmask, deltaIn, e.Join())
	} else {
		in := sc.Inputs(p.Size())
		copy(in, deltaIn)
		r.Around(dmask, in)
		block = sc.EvalSubPattern(p, full, in, e.Join())
	}
	return sc.ProjectCounted(mv.Shape, block, e.Doc, e.proj)
}
