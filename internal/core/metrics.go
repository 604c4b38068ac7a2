package core

import (
	"xivm/internal/algebra"
	"xivm/internal/obs"
)

// engineMetrics bundles the engine's pre-resolved instruments so the hot
// path pays one atomic op per event instead of a registry lookup. All
// fields are nil-safe sinks when the registry is nil.
//
// Counter names (see the README's Observability section for the full
// table):
//
//	core.statements.{insert,delete,replace}   statements applied
//	core.targets                              update targets located
//	core.delta.items                          σ-filtered ∆ entries read, summed over propagated views
//	core.terms.expanded                       union terms considered (post Props 3.3/4.2)
//	core.terms.evaluated                      union terms actually evaluated
//	core.prune.prop33 / core.prune.prop42     terms cut at view-development time
//	core.prune.prop36                         terms cut by empty σ(∆) (data-driven)
//	core.prune.prop38                         terms cut by insertion-point IDs
//	core.prune.prop47                         terms cut by deleted-node IDs
//	core.rows.{added,removed,modified}        view rows touched
//	core.lattice.tuples_dropped               snowcap tuples dropped on delete
//	core.predflip.{in,out}                    predicate flips propagated, unsat→sat and sat→unsat
//	core.views.panicked                       views whose propagation panicked (and were repaired)
//
// Histogram names: core.phase.<phase> for the five propagation phases.
// find_targets and the ∆
// tables' walk are observed once per statement (twice for a replace), the
// other phases, and each view's σ-filtered read of the tables under
// compute_delta, once per propagated view.
type engineMetrics struct {
	reg *obs.Metrics

	stInsert, stDelete, stReplace *obs.Counter
	targets                       *obs.Counter
	deltaItems                    *obs.Counter

	termsExpanded, termsEvaluated *obs.Counter
	pruneProp33, pruneProp42      *obs.Counter
	pruneProp36                   *obs.Counter
	pruneProp38                   *obs.Counter
	pruneProp47                   *obs.Counter

	rowsAdded, rowsRemoved, rowsModified *obs.Counter
	latticeDropped                       *obs.Counter
	predFlipIn, predFlipOut              *obs.Counter
	viewsPanicked                        *obs.Counter

	phase map[string]*obs.Histogram
}

func newEngineMetrics(reg *obs.Metrics) *engineMetrics {
	m := &engineMetrics{
		reg:            reg,
		stInsert:       reg.Counter("core.statements.insert"),
		stDelete:       reg.Counter("core.statements.delete"),
		stReplace:      reg.Counter("core.statements.replace"),
		targets:        reg.Counter("core.targets"),
		deltaItems:     reg.Counter("core.delta.items"),
		termsExpanded:  reg.Counter("core.terms.expanded"),
		termsEvaluated: reg.Counter("core.terms.evaluated"),
		pruneProp33:    reg.Counter("core.prune.prop33"),
		pruneProp42:    reg.Counter("core.prune.prop42"),
		pruneProp36:    reg.Counter("core.prune.prop36"),
		pruneProp38:    reg.Counter("core.prune.prop38"),
		pruneProp47:    reg.Counter("core.prune.prop47"),
		rowsAdded:      reg.Counter("core.rows.added"),
		rowsRemoved:    reg.Counter("core.rows.removed"),
		rowsModified:   reg.Counter("core.rows.modified"),
		latticeDropped: reg.Counter("core.lattice.tuples_dropped"),
		predFlipIn:     reg.Counter("core.predflip.in"),
		predFlipOut:    reg.Counter("core.predflip.out"),
		viewsPanicked:  reg.Counter("core.views.panicked"),
		phase:          make(map[string]*obs.Histogram, len(obs.Phases)),
	}
	for _, p := range obs.Phases {
		m.phase[p] = reg.Histogram("core.phase." + p)
	}
	return m
}

// recordView folds one view's propagation outcome into the counters. Only
// a propagated view has phases to observe: a panicked one ran none.
func (m *engineMetrics) recordView(vr *ViewReport) {
	m.rowsAdded.Add(int64(vr.RowsAdded))
	m.rowsRemoved.Add(int64(vr.RowsRemoved))
	m.rowsModified.Add(int64(vr.RowsModified))
	if vr.Panicked {
		return
	}
	m.phase[obs.PhaseComputeDelta].Observe(vr.Phases.ComputeDelta)
	m.phase[obs.PhaseGetExpression].Observe(vr.Phases.GetExpression)
	m.phase[obs.PhaseExecuteUpdate].Observe(vr.Phases.ExecuteUpdate)
	m.phase[obs.PhaseUpdateLattice].Observe(vr.Phases.UpdateLattice)
}

// countDeltaItems sums the σ-filtered ∆ entries of one view pass and
// returns the sum.
func (m *engineMetrics) countDeltaItems(in algebra.Inputs) int64 {
	var n int64
	for _, items := range in {
		n += int64(len(items))
	}
	m.deltaItems.Add(n)
	return n
}
