package core

import (
	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Option configures an Engine at construction time. Options compose left to
// right: later options override earlier ones.
type Option func(*Options)

// New indexes the document and returns an engine configured by the given
// options — the preferred constructor:
//
//	e := core.New(doc, core.WithParallel(), core.WithTracer(t))
//
// New(doc) with no options is equivalent to NewEngine(doc, Options{}): the
// paper's default configuration (snowcap policy, Dewey structural joins,
// all pruning enabled, sequential propagation, process-wide metrics).
func New(doc *xmltree.Document, options ...Option) *Engine {
	var opts Options
	for _, o := range options {
		o(&opts)
	}
	return NewEngine(doc, opts)
}

// WithPolicy selects the lattice materialization policy (Section 6.7).
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithJoin overrides the physical join used for every structural join.
func WithJoin(j algebra.JoinFunc) Option { return func(o *Options) { o.Join = j } }

// WithParallel propagates each statement to all views concurrently.
func WithParallel() Option { return func(o *Options) { o.Parallel = true } }

// WithSharedSnowcaps deduplicates snowcap materializations across views.
func WithSharedSnowcaps() Option { return func(o *Options) { o.SharedSnowcaps = true } }

// WithIndependencePrecheck installs a static update/view independence test;
// statements it proves independent of a view skip that view entirely.
func WithIndependencePrecheck(f func(*pattern.Pattern, *update.Statement) bool) Option {
	return func(o *Options) { o.IndependencePrecheck = f }
}

// WithMetrics records the engine's counters and histograms into m instead
// of the process-wide obs.Default() registry.
func WithMetrics(m *obs.Metrics) Option { return func(o *Options) { o.Metrics = m } }

// WithTracer installs a span tracer covering statements, phases and views.
func WithTracer(t obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithJournal installs a write-ahead hook: f runs with every statement
// before the document or any view is mutated, and an error from it aborts
// the statement with no effect. The durability layer (internal/wal) uses
// this to append statements to its log ahead of propagation.
func WithJournal(f func(st *update.Statement) error) Option {
	return func(o *Options) { o.Journal = f }
}

// SetOnApplied installs (or replaces) the applied-statement hook after
// construction — for owners like a serving shard that wrap an engine they
// did not build. Not synchronized: call before the engine is shared with
// an applying goroutine.
func (e *Engine) SetOnApplied(f func(sts []*update.Statement, version uint64)) {
	e.opts.OnApplied = f
}

// WithoutDataPruning disables Proposition 3.6's data-driven term pruning
// (ablation).
func WithoutDataPruning() Option { return func(o *Options) { o.DisableDataPruning = true } }

// WithoutIDPruning disables the ID-driven pruning of Propositions 3.8 / 4.7
// (ablation).
func WithoutIDPruning() Option { return func(o *Options) { o.DisableIDPruning = true } }
