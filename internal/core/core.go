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
// per phase and per view. The context-aware entry points (ApplyStatementCtx,
// ApplyPULCtx) honor cancellation between phases and between views; a
// cancelled pass never leaves a view inconsistent (see applyPUL).
package core

import (
	"context"
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
	// PolicySnowcaps materializes one snowcap per lattice level (plus the
	// leaves, which are the canonical relations themselves).
	PolicySnowcaps Policy = iota
	// PolicyLeaves materializes nothing beyond the canonical relations and
	// recomputes internal joins on the fly.
	PolicyLeaves
	// PolicyCost materializes the snowcaps selected by the cost-based
	// optimizer of costmodel.go, driven by Options.Profile.
	PolicyCost
)

func (p Policy) String() string {
	switch p {
	case PolicyLeaves:
		return "leaves"
	case PolicyCost:
		return "cost"
	}
	return "snowcaps"
}

// Options tunes an Engine; the zero value is the paper's default
// configuration (snowcap policy, structural joins, all pruning on).
// Prefer the functional-option constructor New (options.go) over poking
// fields directly — the struct form is kept for the zero-value default and
// for serialization-style construction, but new fields are only guaranteed
// to get a matching With* option.
type Options struct {
	Policy Policy
	// Join overrides the physical join (nil = Dewey structural join).
	Join algebra.JoinFunc
	// DisableDataPruning turns off the inserted-data-driven pruning of
	// Proposition 3.6 (ablation).
	DisableDataPruning bool
	// DisableIDPruning turns off the inserted-ID-driven pruning of
	// Propositions 3.8 / 4.7 (ablation).
	DisableIDPruning bool
	// Profile drives PolicyCost's snowcap selection (nil = uniform).
	Profile UpdateProfile
	// IndependencePrecheck, when non-nil, is consulted per view before
	// propagation: statements it declares independent of a view skip that
	// view entirely (see internal/independence for an implementation).
	IndependencePrecheck func(p *pattern.Pattern, st *update.Statement) bool
	// Parallel propagates each statement to all views concurrently. Views
	// are independent during propagation (the document and canonical
	// relations are read-only while views update), so this is safe and
	// scales with the number of views.
	Parallel bool
	// SharedSnowcaps deduplicates snowcap materializations across views
	// (Section 3.5's global optimization): identical sub-patterns are
	// materialized once and maintained once per statement. Incompatible
	// with deferred (Lazy) propagation.
	SharedSnowcaps bool
	// Metrics is the registry the engine records into; nil selects the
	// process-wide obs.Default(). Pass a private registry (obs.New()) to
	// isolate one engine's counters.
	Metrics *obs.Metrics
	// Journal, when non-nil, is invoked with every statement BEFORE the
	// document or any view is mutated — the write-ahead discipline. A
	// journal error aborts the statement with no effect. Statements that
	// are journaled and then rejected by the engine (bad target, parse-time
	// type error surfacing at PUL computation) fail deterministically, so a
	// replay rejects them identically; the durability layer counts them as
	// skipped. Both ApplyStatement(Ctx) and Lazy.Apply honor the hook.
	Journal func(st *update.Statement) error
	// Tracer, when non-nil, receives span start/finish events per
	// statement, per phase and per view. Implementations must be safe for
	// concurrent use when Parallel is set.
	Tracer obs.Tracer
	// OnApplied, when non-nil, is invoked AFTER each batch of source
	// statements has landed — document mutated, every view maintained, and
	// the engine version advanced past them — with the version that now
	// covers the batch. It is the delta stream consumers subscribe to for
	// invalidation: a statement-count-contiguous sequence of calls (the
	// version delta between consecutive calls equals len(sts)) proves the
	// consumer has vetted every write; any gap (version bumps from
	// recomputation repairs, direct ApplyPUL, lazy flushes) tells it to
	// discard everything it derived. Replace statements are reported once
	// per half (two calls, same statement). The hook runs on the applying
	// goroutine, before the caller can publish the new state.
	OnApplied func(sts []*update.Statement, version uint64)
}

// Engine owns a document, its store, and a set of maintained views.
type Engine struct {
	Doc   *xmltree.Document
	Store *store.Store
	Views []*ManagedView
	pool  *Pool
	opts  Options
	join  algebra.JoinFunc // physical join, instrumented
	m     *engineMetrics
	proj  algebra.ProjectCounters

	// version counts successfully applied mutation batches (statements,
	// PULs, deferred applies, baseline recomputations). It identifies
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

// ManagedView is one materialized view under maintenance.
type ManagedView struct {
	Name    string
	Pattern *pattern.Pattern
	View    *store.View
	Lattice *Lattice
	// insertTerms / deleteTerms are developed once, when the view is
	// created (first step of Algorithm 1), and pruned per update.
	insertTerms []uint64
	deleteTerms []uint64
}

// NewEngine indexes the document and returns an engine with no views.
func NewEngine(doc *xmltree.Document, opts Options) *Engine {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	e := &Engine{Doc: doc, Store: store.New(doc), opts: opts}
	e.m = newEngineMetrics(reg)
	e.proj = algebra.NewProjectCounters(reg)
	e.Store.SetMetrics(reg)
	base := opts.Join
	if base == nil {
		base = algebra.StructuralJoin
	}
	e.join = algebra.InstrumentJoin(base, algebra.NewJoinCounters(reg))
	if opts.SharedSnowcaps {
		e.pool = NewPool(e.Store, e.Join())
	}
	return e
}

// Metrics returns the registry the engine records into.
func (e *Engine) Metrics() *obs.Metrics { return e.m.reg }

// span starts a tracer span, returning its (nil-safe) finish function.
func (e *Engine) span(name string) func() { return obs.StartSpan(e.opts.Tracer, name) }

// SharedPool returns the cross-view snowcap pool, or nil when sharing is
// off.
func (e *Engine) SharedPool() *Pool { return e.pool }

// newLattice builds a view's lattice under the engine's policy.
func (e *Engine) newLattice(p *pattern.Pattern) *Lattice {
	var masks []uint64
	switch {
	case e.opts.Policy == PolicyCost:
		masks = ChooseSnowcaps(p, e.Store, e.opts.Profile)
	case e.opts.Policy == PolicySnowcaps:
		masks = p.SnowcapChain()
	}
	if e.pool != nil && len(masks) > 0 {
		return NewLatticePooled(p, masks, e.pool, e.Store, e.Join())
	}
	if e.opts.Policy == PolicyCost {
		return NewLatticeMasks(p, masks, e.Store, e.Join())
	}
	return NewLattice(p, e.opts.Policy, e.Store, e.Join())
}

// Join returns the engine's physical join function (the configured join
// wrapped with the algebra.join.* counters).
func (e *Engine) Join() algebra.JoinFunc { return e.join }

// AddView materializes a view over the current document and prepares its
// maintenance structures (term expansion and snowcap lattice).
func (e *Engine) AddView(name string, p *pattern.Pattern) (*ManagedView, error) {
	if len(p.StoredIndexes()) == 0 {
		return nil, fmt.Errorf("core: view %s stores nothing", name)
	}
	in := e.Store.Inputs(p)
	tuples := algebra.EvalPattern(p, in, e.Join())
	rows := algebra.ProjectStored(p, tuples, e.Doc)
	return e.installView(name, p, rows)
}

// AddViewRows installs a view from previously materialized rows (e.g. a
// snapshot decoded with store.DecodeSnapshot) without re-evaluating the
// pattern. The caller asserts the rows reflect the engine's current
// document; the auxiliary lattice is rebuilt from the store. Every non-null
// entry ID must name a node of the document, and is replaced, in rows, by
// that node's own ID — the same bytes, so the view holds no second copy of
// the keys the tree holds.
func (e *Engine) AddViewRows(name string, p *pattern.Pattern, rows []algebra.Row) (*ManagedView, error) {
	if len(p.StoredIndexes()) == 0 {
		return nil, fmt.Errorf("core: view %s stores nothing", name)
	}
	for _, r := range rows {
		for j, entry := range r.Entries {
			if entry.ID.IsNull() {
				continue
			}
			n := e.Doc.NodeByID(entry.ID)
			if n == nil {
				return nil, fmt.Errorf("core: view %s: the document has no node %v", name, entry.ID)
			}
			r.Entries[j].ID = n.ID
		}
	}
	return e.installView(name, p, rows)
}

func (e *Engine) installView(name string, p *pattern.Pattern, rows []algebra.Row) (*ManagedView, error) {
	mv := &ManagedView{
		Name:        name,
		Pattern:     p,
		View:        store.NewMaterializedView(p, rows),
		insertTerms: InsertTerms(p),
		deleteTerms: DeleteTerms(p),
	}
	// Development-time pruning accounting: of the 2^k−1 candidate union
	// terms, Propositions 3.3 (insert) and 4.2 (delete) keep only the
	// upward-closed R-masks.
	candidates := int64(p.FullMask()) // 2^k − 1
	e.m.pruneProp33.Add(candidates - int64(len(mv.insertTerms)))
	e.m.pruneProp42.Add(candidates - int64(len(mv.deleteTerms)))
	mv.Lattice = e.newLattice(p)
	e.Views = append(e.Views, mv)
	return mv, nil
}

// Timings is the legacy per-phase breakdown struct reported by the paper's
// experiments. It is now a thin, fixed-field view over the phase-keyed
// obs.Breakdown that reports carry natively.
type Timings struct {
	FindTargets   time.Duration // locate target nodes (Saxon's role)
	ComputeDelta  time.Duration // build the ∆+ / ∆− tables (CD+/CD−)
	GetExpression time.Duration // unfold + prune the update expression
	ExecuteUpdate time.Duration // evaluate terms, apply to the view
	UpdateLattice time.Duration // refresh auxiliary structures
}

// TimingsOf projects a phase-keyed breakdown onto the legacy struct.
func TimingsOf(b obs.Breakdown) Timings {
	return Timings{
		FindTargets:   b.Get(obs.PhaseFindTargets),
		ComputeDelta:  b.Get(obs.PhaseComputeDelta),
		GetExpression: b.Get(obs.PhaseGetExpression),
		ExecuteUpdate: b.Get(obs.PhaseExecuteUpdate),
		UpdateLattice: b.Get(obs.PhaseUpdateLattice),
	}
}

// Breakdown converts the legacy struct back to its phase-keyed form.
func (t Timings) Breakdown() obs.Breakdown {
	return obs.Breakdown{
		obs.PhaseFindTargets:   t.FindTargets,
		obs.PhaseComputeDelta:  t.ComputeDelta,
		obs.PhaseGetExpression: t.GetExpression,
		obs.PhaseExecuteUpdate: t.ExecuteUpdate,
		obs.PhaseUpdateLattice: t.UpdateLattice,
	}
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
	// Phases is the per-view propagation cost, keyed by obs.Phase* names.
	// Target location is shared across views and lives on the Report
	// (Report.FindTargets), so it never appears here.
	Phases        obs.Breakdown
	TermsTotal    int // terms before data-driven pruning
	TermsSurvived int // terms actually evaluated
	RowsAdded     int
	RowsRemoved   int
	RowsModified  int
	// PredFallback reports that the update flipped a value predicate on an
	// existing node, forcing this view to be recomputed (see predflip.go).
	PredFallback bool
	// Skipped reports that the independence precheck proved the statement
	// cannot affect this view, so propagation was skipped.
	Skipped bool
	// Cancelled reports that context cancellation aborted this view's
	// algebraic propagation; the engine repaired the view by recomputation
	// before returning, so it is stale-proof but the incremental path was
	// not exercised.
	Cancelled bool
	// Panicked reports that this view's propagation panicked (a bug in a
	// custom join, a corrupted lattice). The panic is contained to the
	// view: the engine repaired it by recomputation before returning, so a
	// long-lived writer loop survives a poisoned propagation path.
	Panicked bool
}

// Timings returns the view's breakdown in the legacy fixed-field form
// (FindTargets is report-level and therefore zero here).
func (vr *ViewReport) Timings() Timings { return TimingsOf(vr.Phases) }

// Report describes the effect of one statement on the engine.
type Report struct {
	Statement *update.Statement
	Targets   int
	// FindTargets is the cost of locating the statement's target nodes.
	// It is paid once per statement regardless of the number of views,
	// which is why it lives here and not in the per-view breakdowns.
	FindTargets time.Duration
	Views       []ViewReport
}

// Breakdown returns the statement's phase-keyed cost: the sum of every
// view's phases plus the shared target-location cost, counted exactly
// once.
func (r *Report) Breakdown() obs.Breakdown {
	var b obs.Breakdown
	for i := range r.Views {
		b = b.Add(r.Views[i].Phases)
	}
	return b.Set(obs.PhaseFindTargets, r.FindTargets)
}

// Timings is the legacy fixed-field view over Breakdown.
func (r *Report) Timings() Timings { return TimingsOf(r.Breakdown()) }

// ApplyStatement runs one update statement: it computes the pending update
// list, applies the update to the document, and incrementally propagates it
// to every managed view (PINT/PIMT for insertions, PDDT/PDMT for
// deletions). The document and store are updated exactly once.
func (e *Engine) ApplyStatement(st *update.Statement) (*Report, error) {
	return e.ApplyStatementCtx(context.Background(), st)
}

// ApplyStatementCtx is ApplyStatement with cancellation: ctx is checked
// before target location, before the document is mutated, between the
// delete and insert halves of a replace, and between views during
// propagation. Cancellation before the document mutation aborts with no
// effect; cancellation later completes the mutation, repairs any
// not-yet-propagated view by recomputation, and returns ctx.Err() — the
// engine is always left consistent.
func (e *Engine) ApplyStatementCtx(ctx context.Context, st *update.Statement) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.opts.Journal != nil {
		if err := e.opts.Journal(st); err != nil {
			return nil, err
		}
	}
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
		if err := ctx.Err(); err != nil {
			return nil, err // nothing mutated yet: clean abort
		}
		delRep, err := e.applyPUL(ctx, delPul, nil)
		if err != nil {
			return nil, err
		}
		e.notifyApplied(st)
		if err := ctx.Err(); err != nil {
			// The delete half is fully applied and propagated; the insert
			// half never starts. Views are consistent with the half-updated
			// document, so this is a clean mid-stream abort.
			return nil, err
		}
		insRep, err := e.applyPUL(ctx, insPul, nil)
		if err != nil {
			return nil, err
		}
		e.notifyApplied(st)
		rep := &Report{Statement: st, Targets: delPul.Targets(), FindTargets: findTargets}
		for i := range delRep.Views {
			vr := delRep.Views[i]
			ivr := insRep.Views[i]
			vr.Phases = vr.Phases.Add(ivr.Phases)
			vr.RowsAdded += ivr.RowsAdded
			vr.RowsRemoved += ivr.RowsRemoved
			vr.RowsModified += ivr.RowsModified
			vr.TermsTotal += ivr.TermsTotal
			vr.TermsSurvived += ivr.TermsSurvived
			vr.PredFallback = vr.PredFallback || ivr.PredFallback
			vr.Cancelled = vr.Cancelled || ivr.Cancelled
			rep.Views = append(rep.Views, vr)
		}
		return rep, nil
	}
	if st.Kind == update.Insert {
		e.m.stInsert.Inc()
	} else {
		e.m.stDelete.Inc()
	}
	endFind := e.span(obs.PhaseFindTargets)
	pul, err := update.ComputePUL(e.Doc, st)
	endFind()
	if err != nil {
		return nil, err
	}
	findTargets := time.Since(t0)
	e.m.phase[obs.PhaseFindTargets].Observe(findTargets)
	e.m.targets.Add(int64(pul.Targets()))

	// Optional static independence fast path: views the precheck proves
	// unaffected skip propagation for this statement.
	var skip map[*ManagedView]bool
	if e.opts.IndependencePrecheck != nil {
		for _, mv := range e.Views {
			if e.opts.IndependencePrecheck(mv.Pattern, st) {
				if skip == nil {
					skip = map[*ManagedView]bool{}
				}
				skip[mv] = true
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err // nothing mutated yet: clean abort
	}

	rep, err := e.applyPUL(ctx, pul, skip)
	if err != nil {
		return nil, err
	}
	e.notifyApplied(st)
	rep.Statement = st
	rep.FindTargets = findTargets
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// notifyApplied reports one landed statement to the OnApplied hook with
// the version that now covers it.
func (e *Engine) notifyApplied(st *update.Statement) {
	if e.opts.OnApplied != nil {
		e.opts.OnApplied([]*update.Statement{st}, e.Version())
	}
}

// ApplyPUL propagates an already-computed pending update list: it applies
// the node-level operations to the document and incrementally maintains
// every view. This is the entry point used when PULs arrive pre-optimized
// (Section 5) rather than from a statement.
func (e *Engine) ApplyPUL(pul *update.PUL) (*Report, error) {
	return e.ApplyPULCtx(context.Background(), pul)
}

// ApplyPULCtx is ApplyPUL with cancellation, under the same contract as
// ApplyStatementCtx: once the document is mutated, cancelled views are
// repaired by recomputation and ctx.Err() is returned alongside the
// report.
func (e *Engine) ApplyPULCtx(ctx context.Context, pul *update.PUL) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := e.applyPUL(ctx, pul, nil)
	if err != nil {
		return rep, err
	}
	return rep, ctx.Err()
}

func (e *Engine) applyPUL(ctx context.Context, pul *update.PUL, skip map[*ManagedView]bool) (*Report, error) {
	// Snapshot σ membership of predicate-labeled ancestors of the targets;
	// if the update flips any of them (text added or removed below an
	// existing node a view predicate tests), the ∆ algebra cannot express
	// the change and the affected view falls back to recomputation.
	probes := e.snapshotPredicates(pul)

	rep := &Report{Targets: pul.Targets()}
	switch pul.Kind {
	case update.Insert:
		applied, err := update.Apply(e.Doc, e.Store, pul)
		if err != nil {
			return nil, err
		}
		// Terms are evaluated against the canonical relations' membership
		// before the update and their content after it. The label index
		// already lists the inserted subtrees (and reads the spine copies
		// the insertion made), so the store hides them until every view's
		// lattice and the shared snowcaps are maintained.
		e.Store.Hide(applied.InsertedRoots)
		rep.Views = e.propagateAll(ctx, skip, func(mv *ManagedView) ViewReport {
			return e.propagateInsert(mv, pul, applied)
		})
		if e.pool != nil {
			// Shared snowcaps are maintained once per statement (like each
			// view's own lattice).
			e.pool.ApplyInsert(applied.InsertedRoots)
		}
		e.Store.Hide(nil)
	case update.Delete:
		applied, err := update.Apply(e.Doc, e.Store, pul)
		if err != nil {
			return nil, err
		}
		if e.pool != nil {
			e.pool.ApplyDelete(applied.DeletedRoots)
		}
		rep.Views = e.propagateAll(ctx, skip, func(mv *ManagedView) ViewReport {
			return e.propagateDelete(mv, pul, applied)
		})
	}
	// Repair passes run against the whole store again: first views whose
	// algebraic propagation was cancelled or panicked mid-stream, then
	// views whose predicates flipped. All end in a consistent recomputed
	// state.
	for i := range rep.Views {
		if rep.Views[i].Cancelled {
			e.m.viewsCancelled.Inc()
			e.recomputeFallback(rep.Views[i].View)
		} else if rep.Views[i].Panicked {
			e.m.viewsPanicked.Inc()
			e.recomputeFallback(rep.Views[i].View)
		}
	}
	for mv := range e.flippedViews(probes) {
		e.m.predFlips.Inc()
		e.recomputeFallback(mv)
		for i := range rep.Views {
			if rep.Views[i].View == mv {
				rep.Views[i].PredFallback = true
			}
		}
	}
	for i := range rep.Views {
		e.m.recordView(&rep.Views[i])
	}
	e.bumpVersion()
	return rep, nil
}

// propagateAll runs one propagation function over every non-skipped view,
// concurrently when Options.Parallel is set. The document and store must be
// read-only for the duration (guaranteed by the ApplyPUL phase ordering).
// Context cancellation is honored between views: a view whose propagation
// has not started when ctx is cancelled is marked Cancelled instead of
// being propagated (the caller repairs it afterwards). A panic inside one
// view's propagation is likewise contained — the view is marked Panicked
// and repaired by recomputation — so a single poisoned view cannot take
// down the whole apply path (or, under Parallel, the entire process via an
// unrecovered goroutine panic).
func (e *Engine) propagateAll(ctx context.Context, skip map[*ManagedView]bool, f func(*ManagedView) ViewReport) []ViewReport {
	propagate := func(mv *ManagedView) (vr ViewReport) {
		if ctx.Err() != nil {
			return ViewReport{View: mv, Cancelled: true}
		}
		defer func() {
			if r := recover(); r != nil {
				vr = ViewReport{View: mv, Panicked: true}
			}
		}()
		end := e.span("view:" + mv.Name)
		defer end()
		return f(mv)
	}
	out := make([]ViewReport, len(e.Views))
	if !e.opts.Parallel || len(e.Views) < 2 {
		for i, mv := range e.Views {
			if skip[mv] {
				e.m.viewsSkipped.Inc()
				out[i] = ViewReport{View: mv, Skipped: true}
				continue
			}
			out[i] = propagate(mv)
		}
		return out
	}
	var wg sync.WaitGroup
	for i, mv := range e.Views {
		if skip[mv] {
			e.m.viewsSkipped.Inc()
			out[i] = ViewReport{View: mv, Skipped: true}
			continue
		}
		wg.Add(1)
		go func(i int, mv *ManagedView) {
			defer wg.Done()
			out[i] = propagate(mv)
		}(i, mv)
	}
	wg.Wait()
	return out
}

// deltaInputs builds per-pattern-node ∆ inputs from subtree roots: the CD+
// / CD− delta tables, σ-filtered by each node's value predicate, with the
// root-anchor filter applied (an inserted node can never be the document
// root, so a /-anchored pattern root always has an empty ∆).
func (e *Engine) deltaInputs(p *pattern.Pattern, roots []*xmltree.Node) algebra.Inputs {
	return e.filterDelta(p, update.DeltaTables(roots, p.Labels()))
}

// filterDelta applies σ and the root anchor to the ∆ tables of p's labels.
func (e *Engine) filterDelta(p *pattern.Pattern, tables map[string][]algebra.Item) algebra.Inputs {
	in := make(algebra.Inputs, p.Size())
	for i, n := range p.Nodes {
		in[i] = algebra.Filter(tables[n.Label], n, e.Doc)
	}
	in[0] = algebra.FilterRootAnchor(p, in[0])
	return in
}

// evalTermFrom evaluates one union term: R-nodes (rmask) come from the
// lattice (a materialized snowcap, or on-the-fly joins over the canonical
// relations r resolves), ∆-nodes from the delta inputs; the boundary edges
// become structural joins. Results are projected onto the view's stored
// nodes.
func (e *Engine) evalTermFrom(mv *ManagedView, rmask uint64, deltaIn algebra.Inputs, r *Relations) []algebra.Row {
	p := mv.Pattern
	full := p.FullMask()
	dmask := full &^ rmask
	var block algebra.Block
	if rmask == 0 {
		block = algebra.EvalSubPattern(p, full, deltaIn, e.Join())
	} else {
		block = mv.Lattice.BlockFrom(rmask, r)
		forest, roots := algebra.EvalForest(p, dmask, deltaIn, e.Join())
		block = algebra.AttachForest(p, block, forest, roots, e.Join())
	}
	return algebra.ProjectBlockCounted(p, block, p.StoredIndexes(), e.Doc, e.proj)
}
