package core

import (
	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/xmltree"
)

// Option configures an Engine at construction time. Options compose left to
// right: later options override earlier ones.
type Option func(*Options)

// New indexes the document and returns an engine configured by the given
// options — the preferred constructor:
//
//	e := core.New(doc, core.WithPolicy(core.PolicyLeaves), core.WithTracer(t))
//
// New(doc) with no options is equivalent to NewEngine(doc, Options{}): the
// paper's default configuration (snowcap policy, Dewey structural joins,
// all pruning enabled, process-wide metrics).
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

// WithMetrics records the engine's counters and histograms into m instead
// of the process-wide obs.Default() registry.
func WithMetrics(m *obs.Metrics) Option { return func(o *Options) { o.Metrics = m } }

// WithTracer installs a span tracer covering statements, phases and views.
func WithTracer(t obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithoutDataPruning disables Proposition 3.6's data-driven term pruning
// (ablation).
func WithoutDataPruning() Option { return func(o *Options) { o.DisableDataPruning = true } }

// WithoutIDPruning disables the ID-driven pruning of Propositions 3.8 / 4.7
// (ablation).
func WithoutIDPruning() Option { return func(o *Options) { o.DisableIDPruning = true } }
