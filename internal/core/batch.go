package core

import "xivm/internal/update"

// BatchPUL is one unit of a translated statement batch: a combined
// node-level pending update list, applied and propagated in a single pass,
// standing in for Statements consecutive source statements. Batches are
// produced by internal/pulopt's planner, which guarantees that applying the
// units in order is equivalent to applying the source statements one at a
// time.
type BatchPUL struct {
	PUL *update.PUL
	// Statements is how many source statements this unit stands for. The
	// engine version advances by exactly this much when the unit lands, so
	// a batch ends on the same version sequential application would have
	// reached — WAL replay (always per-statement) and shadow-oracle
	// version accounting stay aligned.
	Statements int
}

// ApplyBatch applies a translated batch: each unit's PUL is applied to the
// document and propagated to every view exactly once, and the engine
// version advances by the unit's statement count. The merged report covers
// the whole batch (Statement is nil; Targets and per-view row counts are
// summed).
//
// It returns the number of source statements whose effects landed — the
// version delta — which is len-of-batch on success and the completed-unit
// sum on error.
//
// A unit failing mid-batch leaves the engine exactly as the completed
// prefix left it, at a statement boundary: both mutators check their input
// before they change anything. The planner's gating makes that path
// unreachable for well-formed batches (every target pre-resolved, attached,
// and element-kinded); pulopt.ApplyRun, the one caller outside tests, goes
// on from the boundary one statement at a time.
func (e *Engine) ApplyBatch(units []BatchPUL) (*Report, int, error) {
	defer e.giveBack(e.lend())
	rep := newReport()
	applied := 0
	for _, u := range units {
		urep, err := e.applyPUL(u.PUL)
		if err != nil {
			return rep, applied, err
		}
		// applyPUL bumped once; account for the rest of the unit's
		// statements so the batch lands on the sequential version.
		if u.Statements > 1 {
			e.version.Add(uint64(u.Statements - 1))
		}
		applied += u.Statements
		MergeBatchReport(rep, urep)
		urep.Release()
	}
	return rep, applied, nil
}

// MergeBatchReport folds one unit's report into a batch report;
// ApplyStatement merges a replace's delete and insert halves with it too.
func MergeBatchReport(dst, src *Report) {
	dst.Targets += src.Targets
	dst.FindTargets += src.FindTargets
	dst.ComputeDelta += src.ComputeDelta
	if dst.Views == nil {
		dst.Views = append(dst.Views, src.Views...)
		return
	}
	for i := range src.Views {
		if i >= len(dst.Views) {
			dst.Views = append(dst.Views, src.Views[i])
			continue
		}
		vr := &dst.Views[i]
		svr := &src.Views[i]
		vr.Phases.Add(svr.Phases)
		vr.RowsAdded += svr.RowsAdded
		vr.RowsRemoved += svr.RowsRemoved
		vr.RowsModified += svr.RowsModified
		vr.TermsTotal += svr.TermsTotal
		vr.TermsSurvived += svr.TermsSurvived
		vr.Panicked = vr.Panicked || svr.Panicked
	}
}
