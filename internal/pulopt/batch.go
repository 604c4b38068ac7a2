package pulopt

import (
	"errors"
	"fmt"
	"sort"

	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/update"
	"xivm/internal/xmltree"
	"xivm/internal/xpath"
)

// ErrNotBatchable reports that a statement batch cannot be translated to
// one combined delta with sequential-equivalence guaranteed; the caller
// falls back to per-statement application. Test with errors.Is.
var ErrNotBatchable = errors.New("pulopt: batch not translatable")

// NotBatchableError carries the specific gate that rejected the batch (its
// Reason feeds the server's fallback counters). It matches ErrNotBatchable
// under errors.Is.
type NotBatchableError struct {
	Reason string // "replace", "copyof", "path", "label-overlap", "compute", "conflict", "reduce"
	Detail string
}

func (e *NotBatchableError) Error() string {
	return fmt.Sprintf("pulopt: batch not translatable (%s): %s", e.Reason, e.Detail)
}

// Is makes errors.Is(err, ErrNotBatchable) true for every gate rejection.
func (e *NotBatchableError) Is(target error) bool { return target == ErrNotBatchable }

func notBatchable(reason, format string, args ...any) error {
	return &NotBatchableError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// BatchPlan is a batch of statements translated to one combined delta, as
// Section 5 composes PULs: every target resolved against the current
// document (the batch's D0), the per-statement deltas aggregated and
// reduced, and the result split into per-kind units the engine propagates
// once each. PlanBatch only returns a plan when applying Units in order is
// equivalent to applying its statements one at a time.
type BatchPlan struct {
	// Units are the propagation units: one combined PUL per maximal run of
	// consecutive same-kind statements, in statement order.
	Units []core.BatchPUL
}

// PlanBatch translates a queued statement batch into one combined delta.
//
// Resolving every statement against D0 is only equivalent to sequential
// execution when no statement's targets depend on an earlier statement's
// effects, so the plan is gated conservatively:
//
//   - No Replace statements, and no CopyOf source beyond the first
//     statement (both resolve data, not just targets, against the store).
//   - Every non-first statement's target path is name-steps only — no
//     predicates, wildcards, text() or attribute tests — so an earlier
//     insertion or deletion cannot flip what the path matches...
//   - ...except by creating nodes the path's labels name, so a non-first
//     path whose labels intersect the labels of any earlier statement's
//     inserted forest rejects the batch.
//   - Delete targets that an earlier statement's deletion already covers
//     are dropped (sequential execution would not see them), and the
//     per-statement deltas must integrate with no IO/LO/NLO conflict —
//     which in particular rejects any insertion into a node an earlier
//     statement deletes.
//
// Past the gates the aggregated+reduced delta is provably the plain
// concatenation of the per-statement deltas (every merge rule is blocked by
// the same conditions), which the plan verifies before splitting into
// units; any divergence rejects the batch rather than risking
// non-equivalence.
func PlanBatch(e *core.Engine, stmts []*update.Statement) (*BatchPlan, error) {
	if len(stmts) == 0 {
		return nil, notBatchable("compute", "empty batch")
	}
	plan := &BatchPlan{}
	// Each statement's D0-resolved node-level PUL (with targets sequential
	// execution would no longer see filtered out), its elementary sequence,
	// and their concatenation.
	puls := make([]*update.PUL, len(stmts))
	seqs := make([]Seq, len(stmts))
	var ops Seq
	inserted := map[string]bool{} // element labels inserted by earlier statements
	var deleted []dewey.ID        // deletion roots kept so far, in statement order

	for j, st := range stmts {
		if st.Kind == update.Replace {
			return nil, notBatchable("replace", "statement %d is a replace", j)
		}
		if j > 0 {
			if st.CopyOf != nil {
				return nil, notBatchable("copyof", "statement %d copies from the document", j)
			}
			names, ok := simpleNamePath(st.Target)
			if !ok {
				return nil, notBatchable("path", "statement %d target %s has non-name steps or predicates", j, st.Target.String())
			}
			for _, name := range names {
				if inserted[name] {
					return nil, notBatchable("label-overlap", "statement %d target step %q matches a label inserted earlier in the batch", j, name)
				}
			}
		}
		pul, err := update.ComputePUL(e.Doc, st)
		if err != nil {
			// Per-statement application reproduces the same error with
			// proper attribution.
			return nil, notBatchable("compute", "statement %d: %v", j, err)
		}
		switch pul.Kind {
		case update.Delete:
			kept := pul.Deletes[:0]
			for _, n := range pul.Deletes {
				if coveredBy(deleted, n.ID()) {
					continue // already gone when this statement would run
				}
				kept = append(kept, n)
			}
			pul.Deletes = kept
			for _, n := range kept {
				deleted = append(deleted, n.ID())
			}
		case update.Insert:
			for _, pi := range pul.Inserts {
				for _, t := range pi.Trees {
					collectLabels(t, inserted)
				}
			}
		}
		puls[j] = pul
		seqs[j] = FromPUL(pul)
		ops = append(ops, seqs[j]...)
	}

	// Parallel-integration conflict rules across every statement pair: any
	// IO/LO/NLO hit means the batch's effect could depend on order beyond
	// what the gates above prove safe.
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			if _, conflicts := Integrate(seqs[i], seqs[j]); len(conflicts) > 0 {
				return nil, notBatchable("conflict", "statements %d/%d: %v", i, j, conflicts[0])
			}
		}
	}

	// Aggregate the per-statement deltas in order, then reduce. Post-gate
	// neither pass may change the sequence (merges shrink it); verify
	// rather than trust the argument.
	agg := Seq{}
	for _, s := range seqs {
		agg = Aggregate(agg, s)
	}
	if reduced := Reduce(agg); len(reduced) != len(ops) {
		return nil, notBatchable("reduce", "combined delta reduced from %d to %d ops — order dependence suspected", len(ops), len(reduced))
	}

	// Split into units: one combined PUL per maximal run of consecutive
	// same-kind statements, preserving statement order so every inserted
	// node receives exactly the ID sequential execution would assign.
	for a := 0; a < len(stmts); {
		b := a + 1
		for b < len(stmts) && stmts[b].Kind == stmts[a].Kind {
			b++
		}
		plan.Units = append(plan.Units, core.BatchPUL{
			PUL:        mergeRun(puls[a:b]),
			Statements: b - a,
		})
		a = b
	}
	return plan, nil
}

// Result is one statement's outcome in a run ApplyRun folded.
type Result struct {
	// Report is the statement's engine report. The statements a translated
	// plan landed share the plan's merged report.
	Report *core.Report
	// Err is why the statement had no effect.
	Err error
}

// Run is what ApplyRun did with a run of statements.
type Run struct {
	// Results holds one Result per statement, in statement order.
	Results []Result
	// Translated reports that the planner translated the run.
	Translated bool
	// Reason is the planner's reject reason (NotBatchableError.Reason) for
	// a run it was offered and refused; "" otherwise.
	Reason string
	// UnitErr is the error a translated unit failed with, after which the
	// run went on one statement at a time. The planner's gates rule it
	// out, so it marks a planner bug, not a failed statement.
	UnitErr error
}

// ApplyUnits lands a translated plan's units: it is (*core.Engine).ApplyBatch,
// held in a variable so that a test can make a unit fail.
var ApplyUnits = (*core.Engine).ApplyBatch

// ApplyRun folds a run of statements into e, in order: the one place that
// chooses between a combined delta and per-statement application, for the
// shard writer, crash recovery and a follower alike. An update is a
// function from one document to the next, so the state reached depends on
// the statements alone, never on how the run was split.
//
// A run of more than one statement is offered to PlanBatch, and a
// translated plan lands through core.ApplyBatch. Both mutators check their
// input before they change anything, so a unit that fails leaves e at the
// statement boundary its predecessors reached, and the run goes on from
// there one statement at a time. A run the planner rejects, like a run of
// one, is applied one statement at a time; a statement the engine rejects
// has no effect and fails alone. The results are appended to dst[:0].
func ApplyRun(e *core.Engine, stmts []*update.Statement, dst []Result) Run {
	run := Run{Results: dst[:0]}
	if len(stmts) > 1 {
		if plan, err := PlanBatch(e, stmts); err != nil {
			run.Reason = "plan"
			var nb *NotBatchableError
			if errors.As(err, &nb) {
				run.Reason = nb.Reason
			}
		} else {
			rep, applied, err := ApplyUnits(e, plan.Units)
			run.Translated, run.UnitErr = true, err
			for range stmts[:applied] {
				run.Results = append(run.Results, Result{Report: rep})
			}
			stmts = stmts[applied:]
		}
	}
	for _, st := range stmts {
		rep, err := e.ApplyStatement(st)
		run.Results = append(run.Results, Result{Report: rep, Err: err})
	}
	return run
}

// coveredBy reports whether id is one of the roots or inside one of the
// subtrees already scheduled for deletion.
func coveredBy(deleted []dewey.ID, id dewey.ID) bool {
	for _, d := range deleted {
		if d.Equal(id) || d.IsAncestorOf(id) {
			return true
		}
	}
	return false
}

// simpleNamePath reports whether every step of p is a predicate-free name
// test, returning the step names.
func simpleNamePath(p xpath.Path) ([]string, bool) {
	names := make([]string, 0, len(p.Steps))
	for _, s := range p.Steps {
		if s.Kind != xpath.TestName || len(s.Preds) > 0 {
			return nil, false
		}
		if s.Axis != xpath.Child && s.Axis != xpath.Descendant {
			// Sibling axes select by position among siblings, which the
			// batched label-path translation cannot express.
			return nil, false
		}
		names = append(names, s.Name)
	}
	return names, true
}

// collectLabels records every element label in t's subtree.
func collectLabels(t *xmltree.Node, into map[string]bool) {
	xmltree.Walk(t, func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element {
			into[n.Label()] = true
		}
		return true
	})
}

// mergeRun combines one run of consecutive same-kind per-statement PULs
// into a single PUL. Insertions concatenate in statement order (update
// applies pending inserts in order, reproducing sequential ID assignment);
// deletions merge with the same normalization ComputePUL applies — sorted
// by ID, targets nested under a kept target dropped.
func mergeRun(puls []*update.PUL) *update.PUL {
	merged := &update.PUL{Kind: puls[0].Kind}
	switch merged.Kind {
	case update.Insert:
		for _, p := range puls {
			merged.Inserts = append(merged.Inserts, p.Inserts...)
		}
	case update.Delete:
		for _, p := range puls {
			merged.Deletes = append(merged.Deletes, p.Deletes...)
		}
		sort.Slice(merged.Deletes, func(i, j int) bool {
			return merged.Deletes[i].ID().Compare(merged.Deletes[j].ID()) < 0
		})
		kept := merged.Deletes[:0]
		for _, n := range merged.Deletes {
			if k := len(kept); k > 0 && (kept[k-1].ID().Equal(n.ID()) || kept[k-1].ID().IsAncestorOf(n.ID())) {
				continue
			}
			kept = append(kept, n)
		}
		merged.Deletes = kept
	}
	return merged
}
