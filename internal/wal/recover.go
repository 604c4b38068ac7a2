package wal

import (
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

// Replay folds log records into eng, in order — the one records → engine
// function, fed by crash recovery with what its own disk holds and by a
// follower with what the leader's disk shipped. Since an update is a pure
// function of the state before it, the state reached is a function of the
// image eng was restored from and the record sequence alone.
//
// Runs of statements go through pulopt.ApplyRun in chunks of replayChunk —
// the fold the leader's writer uses — so a chunk the planner translates
// costs one propagation pass per unit, and a chunk it rejects is applied
// per statement. The fold reaches the same document, view rows and version
// wherever chunks fall. A view registration flushes the run and lands at
// its exact position.
func Replay(eng *core.Engine, recs []Record) ReplayResult {
	return replay(eng, recs, replayChunk)
}

// replay is Replay with the chunk size exposed: at chunk 1 nothing is
// planned and every record is applied on its own, which is what the tests
// hold the batched path against.
func replay(eng *core.Engine, recs []Record, chunk int) ReplayResult {
	var res ReplayResult
	run := make([]*update.Statement, 0, chunk)
	var results []pulopt.Result
	flush := func() {
		if len(run) > 1 {
			res.Plans++
		}
		r := pulopt.ApplyRun(eng, run, results)
		if r.Translated {
			res.Batches++
		}
		for _, x := range r.Results {
			if x.Err != nil {
				res.Skipped++
			} else {
				res.Applied++
			}
		}
		results, run = r.Results, run[:0]
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
				flush()
			}
		case RecordView:
			flush()
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
	flush()
	return res
}
