package core

import (
	"sync"

	"xivm/internal/algebra"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// Snapshot is an immutable, self-contained image of the engine at one
// version: every view's rows (lent by the live view, whose stored rows are
// immutable — a later refresh replaces a row, it does not write into one),
// the document as it stood (the writer's own tree, frozen: later mutations
// copy what they touch), and the version counter identifying the state.
// A Snapshot is safe for unlimited concurrent readers and never changes
// after Engine.Snapshot returns — the epoch-published read path
// (internal/server) swaps an atomic pointer to the latest one after each
// applied statement, so readers serve consistent states without ever
// locking the writer. Successive snapshots share what
// the statements between them left alone: document subtrees, and the rows
// of views that did not move.
type Snapshot struct {
	// Version is Engine.Version() at capture time.
	Version uint64
	// Tenant names the database this snapshot serves. The engine does not
	// know its tenant; the serving layer stamps the name once, between
	// capture and publication, so every reader of a published epoch can
	// report which tenant and which epoch its response reflects. Empty
	// outside multi-tenant serving.
	Tenant string
	// Views holds one immutable row set per managed view, in registration
	// order.
	Views []ViewSnapshot
	// ViewsReused counts the Views whose Rows were handed on from the
	// previous snapshot because the view had not changed since.
	ViewsReused int

	// doc is the document's epoch (xmltree.Snapshot): the writer's nodes and
	// IDs themselves, not a serialized reparse, which would compact the
	// Dewey IDs assigned by the mutation history and make XPath results
	// disagree with the view rows captured in the same snapshot.
	doc *xmltree.Document

	xmlOnce sync.Once
	xml     string
}

// ViewSnapshot is one view's immutable image inside a Snapshot.
type ViewSnapshot struct {
	Name    string
	Pattern *pattern.Pattern
	// Rows are the view's rows in canonical (document) order. The slice is
	// this capture's own and every row's Entries are shared with the live
	// view, which never writes a stored row; neither is written after
	// capture, and snapshots of a view that did not change in between
	// share both.
	Rows []algebra.Row
}

// published is what the last Snapshot captured of one view: the rows, and
// the store that lent them at which generation.
type published struct {
	of   *store.View
	gen  uint64
	rows []algebra.Row
}

// Snapshot captures the engine's current state. It must be called from the
// thread that owns the engine (the single writer), between mutations —
// exactly where internal/server's apply loop calls it. The returned value
// is immutable and may be shared with any number of concurrent readers.
// The document costs O(1) — the mutations since the capture before paid
// for it, O(depth × fan-out + |delta|) nodes each (xmltree.Snapshot) — and
// the views cost the rows of those that moved; the first capture, all rows.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Version: e.Version(),
		Views:   make([]ViewSnapshot, 0, len(e.Views)),
		doc:     e.Doc.Snapshot(),
	}
	for _, mv := range e.Views {
		if p := &mv.published; p.of == mv.View && p.gen == mv.View.Generation() {
			s.ViewsReused++
		} else {
			*p = published{of: mv.View, gen: mv.View.Generation(), rows: mv.View.Rows()}
		}
		s.Views = append(s.Views, ViewSnapshot{Name: mv.Name, Pattern: mv.Pattern, Rows: mv.published.rows})
	}
	return s
}

// View returns the snapshot of the named view, or nil if no such view was
// managed at capture time.
func (s *Snapshot) View(name string) *ViewSnapshot {
	for i := range s.Views {
		if s.Views[i].Name == name {
			return &s.Views[i]
		}
	}
	return nil
}

// Doc returns the snapshot's document epoch. Its nodes are the ones the
// writer held at capture time, so rows in the same snapshot resolve
// against it; a node's parent is found through the epoch's root
// (xmltree.ParentIn). Shared by all readers of this and neighbouring
// snapshots; read-only.
func (s *Snapshot) Doc() *xmltree.Document { return s.doc }

// DocXML serializes the snapshot document, building the string at most
// once no matter how many readers ask.
func (s *Snapshot) DocXML() string {
	s.xmlOnce.Do(func() { s.xml = s.doc.String() })
	return s.xml
}

// RepairAllViews rebuilds every managed view (rows and lattice) from the
// current document, the heavy-handed recovery a long-lived writer loop
// reaches for after a panic escaped a single statement's apply path. It is
// best-effort: if the panic interrupted the document mutation itself the
// document may not reflect the full statement, but views are at least
// consistent with whatever document state remains — and so is the next
// Snapshot, which publishes that same tree. The label index, which the
// interrupted mutator may not have patched, is dropped and rebuilt from it.
func (e *Engine) RepairAllViews() {
	e.Doc.ResetImage()
	for _, mv := range e.Views {
		e.recomputeFallback(mv)
	}
}
