package pulopt

import (
	"time"

	"xivm/internal/core"
	"xivm/internal/update"
)

// FromPUL converts a statement-level pending update list into the
// elementary operation sequence the optimization rules work on (the CP step
// of Figure 13).
func FromPUL(pul *update.PUL) Seq {
	var ops Seq
	switch pul.Kind {
	case update.Insert:
		for _, pi := range pul.Inserts {
			ops = append(ops, Op{Kind: InsLast, Target: pi.Target.ID(), Forest: pi.Trees})
		}
	case update.Delete:
		for _, n := range pul.Deletes {
			ops = append(ops, Op{Kind: Del, Target: n.ID()})
		}
	}
	return ops
}

// FromStatements expands a sequence of statement-level updates against the
// engine's CURRENT document into one elementary operation sequence. Note
// that, as in the paper's framework, all target paths are resolved against
// the original document before any operation runs.
func FromStatements(e *core.Engine, stmts []*update.Statement) (Seq, error) {
	var ops Seq
	for _, st := range stmts {
		pul, err := update.ComputePUL(e.Doc, st)
		if err != nil {
			return nil, err
		}
		ops = append(ops, FromPUL(pul)...)
	}
	return ops, nil
}

// Apply runs an elementary operation sequence through the engine, one
// node-level PUL per operation, maintaining all views. An operation whose
// target no longer exists (removed by an earlier deletion in the same
// sequence — exactly what the reduction rules eliminate up front) is still
// processed as an empty PUL: the engine pays the per-operation propagation
// overhead of discovering there is nothing to do, as a store receiving the
// unreduced sequence would. It returns the total propagation time.
func Apply(e *core.Engine, ops Seq) (time.Duration, error) {
	start := time.Now()
	for _, op := range ops {
		pul := &update.PUL{}
		n := e.Doc.NodeByID(op.Target)
		switch op.Kind {
		case InsLast:
			pul.Kind = update.Insert
			if n != nil {
				pul.Inserts = []update.PendingInsert{{Target: n, Trees: op.Forest}}
			}
		case Del:
			pul.Kind = update.Delete
			if n != nil {
				pul.Deletes = append(pul.Deletes, n)
			}
		}
		if _, err := e.ApplyPUL(pul); err != nil {
			return time.Since(start), err
		}
	}
	return time.Since(start), nil
}
