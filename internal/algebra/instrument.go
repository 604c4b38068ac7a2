package algebra

import (
	"xivm/internal/obs"
	"xivm/internal/xmltree"
)

// JoinCounters are the physical-join observability hooks: tuples scanned
// (both input sides) and tuples emitted per join invocation. Nil fields
// are no-op sinks, so a zero JoinCounters is valid.
type JoinCounters struct {
	Calls         *obs.Counter
	TuplesScanned *obs.Counter
	TuplesEmitted *obs.Counter
}

// NewJoinCounters resolves the standard join counter names in m.
func NewJoinCounters(m *obs.Metrics) JoinCounters {
	return JoinCounters{
		Calls:         m.Counter("algebra.join.calls"),
		TuplesScanned: m.Counter("algebra.join.tuples_scanned"),
		TuplesEmitted: m.Counter("algebra.join.tuples_emitted"),
	}
}

// InstrumentJoin wraps a physical join so every invocation records its
// input and output cardinalities. The wrapper adds two atomic increments
// per join — negligible next to the join itself.
func InstrumentJoin(join JoinFunc, c JoinCounters) JoinFunc {
	if join == nil {
		join = StructuralJoin
	}
	return func(left Block, lIdx int, right Block, rIdx int, desc bool) Block {
		c.Calls.Inc()
		c.TuplesScanned.Add(int64(left.Len() + right.Len()))
		out := join(left, lIdx, right, rIdx, desc)
		c.TuplesEmitted.Add(int64(out.Len()))
		return out
	}
}

// ProjectCounters are the projection observability hooks: rows emitted and
// duplicate-elimination merges (tuples folded into an existing row's
// derivation count).
type ProjectCounters struct {
	Rows   *obs.Counter
	Merged *obs.Counter
}

// NewProjectCounters resolves the standard projection counter names in m.
func NewProjectCounters(m *obs.Metrics) ProjectCounters {
	return ProjectCounters{
		Rows:   m.Counter("algebra.project.rows"),
		Merged: m.Counter("algebra.project.merged"),
	}
}

// ProjectCounted projects b onto the stored nodes of s's pattern, as
// ProjectStored does, with dup-elim accounting: c.Merged counts input
// tuples that collapsed into an already-emitted row, c.Rows the distinct
// rows returned.
func ProjectCounted(s *Shape, b Block, doc *xmltree.Document, c ProjectCounters) []Row {
	return (*Scratch)(nil).ProjectCounted(s, b, doc, c)
}
