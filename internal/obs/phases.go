package obs

// The canonical propagation phases, named after the paper's per-phase cost
// breakdown (Section 6): the names of the core.phase.<phase> histograms and
// of the phase spans a Tracer sees.
const (
	PhaseFindTargets   = "find_targets"   // locate target nodes (Saxon's role)
	PhaseComputeDelta  = "compute_delta"  // build the ∆+ / ∆− tables (CD+/CD−)
	PhaseGetExpression = "get_expression" // unfold + prune the update expression
	PhaseExecuteUpdate = "execute_update" // evaluate terms, apply to the view
	PhaseUpdateLattice = "update_lattice" // refresh auxiliary structures
)

// Phases lists the canonical phases in pipeline order.
var Phases = []string{
	PhaseFindTargets,
	PhaseComputeDelta,
	PhaseGetExpression,
	PhaseExecuteUpdate,
	PhaseUpdateLattice,
}
