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

// ReplayPanicError is what Replay returns when folding a record panicked:
// the records of the chunk it was folding, by LSN, and the panic's value.
// An update is a function of the state before it, so the same records
// panic wherever they are folded again — on a restart, on a follower. The
// engine may hold part of the chunk and must not be used again.
type ReplayPanicError struct {
	// First and Last are the LSNs of the chunk's first and last records.
	First, Last uint64
	// Value is what the fold panicked with.
	Value any
}

func (e *ReplayPanicError) Error() string {
	return fmt.Sprintf("wal: replay panicked in records %d-%d: %v", e.First, e.Last, e.Value)
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
// its exact position. A panic in the fold stops it: Replay returns a
// *ReplayPanicError naming the chunk, with what it had counted so far.
func Replay(eng *core.Engine, recs []Record) (ReplayResult, error) {
	return replay(eng, recs, replayChunk)
}

// replay is Replay with the chunk size exposed: at chunk 1 nothing is
// planned and every record is applied on its own, which is what the tests
// hold the batched path against.
func replay(eng *core.Engine, recs []Record, chunk int) (res ReplayResult, err error) {
	// first and last bound the records being folded, for a panic to name.
	var first, last uint64
	defer func() {
		if r := recover(); r != nil {
			err = &ReplayPanicError{First: first, Last: last, Value: r}
		}
	}()
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
	// views holds a run of consecutive view records, parsed, and pats
	// their patterns, installed together with one walk of the document for
	// their labels (core.AddViews).
	var views []Record
	var pats []core.NamedPattern
	install := func() error {
		if len(pats) == 0 {
			return nil
		}
		if err := eng.AddViews(pats); err != nil {
			return err
		}
		res.Applied += len(views)
		res.Views = append(res.Views, views...)
		views, pats = views[:0], pats[:0]
		return nil
	}
	for _, r := range recs {
		if r.Kind != RecordView {
			if err := install(); err != nil {
				return res, err
			}
		}
		switch r.Kind {
		case RecordStatement:
			st, err := update.Parse(r.Statement)
			if err != nil {
				// A skipped statement has no effect, so the run spans it.
				res.Skipped++
				continue
			}
			if len(run) == 0 {
				first = r.LSN
			}
			last = r.LSN
			if run = append(run, st); len(run) == chunk {
				flush()
			}
		case RecordView:
			if len(pats) == 0 {
				flush()
				first = r.LSN
			}
			last = r.LSN
			// A pattern that does not parse or stores nothing was refused
			// when it was first journaled.
			p, err := pattern.Parse(r.ViewPattern)
			if err != nil || len(p.StoredIndexes()) == 0 {
				res.Skipped++
				continue
			}
			views = append(views, r)
			pats = append(pats, core.NamedPattern{Name: r.ViewName, Pattern: p})
		default:
			res.Skipped++
		}
	}
	if err := install(); err != nil {
		return res, err
	}
	flush()
	return res, nil
}
