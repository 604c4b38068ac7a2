package core

import (
	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// options tunes an Engine; the zero value is the served configuration
// (leaves policy, structural joins, all pruning on).
type options struct {
	Policy Policy
	// Join overrides the physical join (nil = Dewey structural join).
	Join algebra.JoinFunc
	// DisableDataPruning turns off the inserted-data-driven pruning of
	// Proposition 3.6 (ablation).
	DisableDataPruning bool
	// DisableIDPruning turns off the inserted-ID-driven pruning of
	// Propositions 3.8 / 4.7 (ablation).
	DisableIDPruning bool
	// Metrics is the registry the engine records into; nil selects the
	// process-wide obs.Default(). Pass a private registry (obs.New()) to
	// isolate one engine's counters.
	Metrics *obs.Metrics
	// Tracer, when non-nil, receives span start/finish events per
	// statement, per phase and per view.
	Tracer obs.Tracer
}

// Option configures an Engine at construction time. Options compose left to
// right: later options override earlier ones.
type Option func(*options)

// New indexes the document and returns an engine with no views,
// configured by the given options:
//
//	e := core.New(doc, core.WithPolicy(core.PolicySnowcaps), core.WithTracer(t))
//
// New(doc) with no options is the configuration every server, log replay
// and follower runs: the leaves policy, which keeps no snowcap lattice,
// Dewey structural joins, all pruning enabled, process-wide metrics.
func New(doc *xmltree.Document, opt ...Option) *Engine {
	var opts options
	for _, o := range opt {
		o(&opts)
	}
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
		// Inside a statement the join's hash, pairs and output come from
		// the statement's scratch.
		base = func(left algebra.Block, lIdx int, right algebra.Block, rIdx int, desc bool) algebra.Block {
			return e.sc.algebra().StructuralJoin(left, lIdx, right, rIdx, desc)
		}
	}
	e.join = algebra.InstrumentJoin(base, algebra.NewJoinCounters(reg))
	return e
}

// WithPolicy selects the lattice materialization policy (Section 6.7);
// without it an engine keeps no lattice (PolicyLeaves).
func WithPolicy(p Policy) Option { return func(o *options) { o.Policy = p } }

// WithJoin overrides the physical join used for every structural join.
func WithJoin(j algebra.JoinFunc) Option { return func(o *options) { o.Join = j } }

// WithMetrics records the engine's counters and histograms into m instead
// of the process-wide obs.Default() registry.
func WithMetrics(m *obs.Metrics) Option { return func(o *options) { o.Metrics = m } }

// WithTracer installs a span tracer covering statements, phases and views.
func WithTracer(t obs.Tracer) Option { return func(o *options) { o.Tracer = t } }

// WithoutDataPruning disables Proposition 3.6's data-driven term pruning
// (ablation).
func WithoutDataPruning() Option { return func(o *options) { o.DisableDataPruning = true } }

// WithoutIDPruning disables the ID-driven pruning of Propositions 3.8 / 4.7
// (ablation).
func WithoutIDPruning() Option { return func(o *options) { o.DisableIDPruning = true } }
