package wal

import (
	"fmt"

	"xivm/internal/core"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
)

// RecoveryStats reports what Open did to reach a consistent state.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint recovery started from.
	CheckpointLSN uint64
	// Replayed counts log records whose effect was re-applied.
	Replayed int
	// Skipped counts log records recovery could not or need not apply:
	// unparseable payloads and statements the engine rejected. Both fail
	// deterministically — they had no effect originally either.
	Skipped int
	// TruncatedBytes is the torn tail cut from the log before replay.
	TruncatedBytes int64
	// BadCheckpoints counts checkpoints rejected before a valid one loaded.
	BadCheckpoints int
}

// replayChunk is how many consecutive statements Replay offers the batch
// planner at once: the leader's default writer batch cap.
const replayChunk = 32

// ReplayResult counts what Replay did with the records it was given.
type ReplayResult struct {
	// Applied counts records whose effect landed: statements and view
	// registrations alike.
	Applied int
	// Skipped counts records with no effect: unknown or unparseable
	// payloads, and statements or registrations the engine rejected. All
	// of them fail deterministically, so they had no effect where the
	// record was first journaled either.
	Skipped int
	// Plans counts statement chunks offered to the batch planner, Batches
	// those it translated; the difference fell back to per-statement
	// application as a whole.
	Plans, Batches int
	// Views lists the view registrations that landed, in log order.
	Views []Record
}

// PartAppliedError reports that a translated batch stopped between its
// units: the engine sits between statement boundaries and must be rebuilt
// from an image. The planner's gates make this unreachable for the
// statements it accepts; the check is what keeps a planner bug from
// becoming silent divergence.
type PartAppliedError struct {
	Applied, Statements int
	Err                 error
}

func (e *PartAppliedError) Error() string {
	return fmt.Sprintf("wal: replay batch part-applied %d/%d statements: %v", e.Applied, e.Statements, e.Err)
}

func (e *PartAppliedError) Unwrap() error { return e.Err }

// applyBatch is the engine's batch entry point; the part-applied tests
// substitute a failing one.
var applyBatch = (*core.Engine).ApplyBatch

// Replay folds log records into eng, in order — the one records → engine
// function, fed by crash recovery with what its own disk holds and by a
// follower with what the leader's disk shipped. Since an update is a pure
// function of the state before it, the state reached is a function of the
// image eng was restored from and the record sequence alone.
//
// Runs of statements go through pulopt.PlanBatch in chunks of replayChunk,
// one propagation pass per translated chunk; a chunk the planner rejects is
// applied per statement as a whole, the leader's rule (Shard.fallback). The
// planner only translates a chunk when that is equivalent to sequential
// application, so document, view rows and version do not depend on where
// chunks fall. A view registration flushes the run and lands at its exact
// position. The only error is *PartAppliedError.
func Replay(eng *core.Engine, recs []Record) (ReplayResult, error) {
	return replay(eng, recs, replayChunk)
}

// replay is Replay with the chunk size exposed: at chunk 1 nothing is
// planned and every record is applied on its own, which is what Open falls
// back to and what the tests hold the batched path against.
func replay(eng *core.Engine, recs []Record, chunk int) (ReplayResult, error) {
	var res ReplayResult
	run := make([]*update.Statement, 0, chunk)
	flush := func() error {
		defer func() { run = run[:0] }()
		if len(run) > 1 {
			res.Plans++
			if plan, err := pulopt.PlanBatch(eng, run); err == nil {
				if _, applied, err := applyBatch(eng, plan.Units); err != nil {
					return &PartAppliedError{Applied: applied, Statements: len(run), Err: err}
				}
				res.Batches++
				res.Applied += len(run)
				return nil
			}
		}
		for _, st := range run {
			if _, err := eng.ApplyStatement(st); err != nil {
				res.Skipped++
			} else {
				res.Applied++
			}
		}
		return nil
	}
	for _, r := range recs {
		switch r.Kind {
		case RecordStatement:
			st, err := update.Parse(r.Statement)
			if err != nil {
				// A skipped statement has no effect, so the run spans it.
				res.Skipped++
				continue
			}
			if run = append(run, st); len(run) == chunk {
				if err := flush(); err != nil {
					return res, err
				}
			}
		case RecordView:
			if err := flush(); err != nil {
				return res, err
			}
			p, err := pattern.Parse(r.ViewPattern)
			if err == nil {
				_, err = eng.AddView(r.ViewName, p)
			}
			if err != nil {
				res.Skipped++
				continue
			}
			res.Applied++
			res.Views = append(res.Views, r)
		default:
			res.Skipped++
		}
	}
	err := flush()
	return res, err
}
