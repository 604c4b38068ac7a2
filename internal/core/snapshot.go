package core

import (
	"xivm/internal/algebra"
	"xivm/internal/store"
	"xivm/internal/xmltree"
)

// Snapshot is an immutable, self-contained image of the engine at one
// version: every view's rows (the live view's own, frozen: a later change
// copies the leaf of rows it lands in and the path above it, and a refresh
// replaces a row, it does not write into one),
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

	// doc is the document's epoch (xmltree.Snapshot): the writer's nodes and
	// IDs themselves, not a serialized reparse, which would compact the
	// Dewey IDs assigned by the mutation history and make XPath results
	// disagree with the view rows captured in the same snapshot.
	doc *xmltree.Document
}

// ViewSnapshot is one view's immutable image inside a Snapshot: the view's
// definition, which every epoch shares, and its rows at capture.
type ViewSnapshot struct {
	*ViewDef
	// Rows are the view's rows in canonical (document) order, as the live
	// view holds them (store.View.Freeze): nothing reachable from here is
	// written after capture, snapshots of a view that did not change in
	// between share all of it, and neighbouring ones all but the leaves
	// the changes landed in and the paths above them.
	Rows store.Rows
}

// Each, Len, RowShape and RowChunks read the view's epoch as a
// rewrite.RowSource that knows its rows' layout and lends them as they lie.
func (vs *ViewSnapshot) Each(f func(algebra.Row) bool) { vs.Rows.Each(f) }
func (vs *ViewSnapshot) Len() int                      { return vs.Rows.Len() }
func (vs *ViewSnapshot) RowShape() *algebra.Shape      { return vs.Shape }
func (vs *ViewSnapshot) RowChunks() store.Rows         { return vs.Rows }

// Snapshot captures the engine's current state. It must be called from the
// thread that owns the engine (the single writer), between mutations —
// exactly where internal/server's apply loop calls it. The returned value
// is immutable and may be shared with any number of concurrent readers.
// The document costs O(1) — the mutations since the capture before paid
// for it, O(depth × fan-out + |delta|) nodes each (xmltree.Snapshot) — and
// so does every view: the changes since paid, a leaf of rows and its path
// each.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{
		Version: e.Version(),
		Views:   make([]ViewSnapshot, 0, len(e.Views)),
		doc:     e.Doc.Snapshot(),
	}
	for _, mv := range e.Views {
		rows, _ := mv.View.Freeze()
		s.Views = append(s.Views, ViewSnapshot{ViewDef: mv.ViewDef, Rows: rows})
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
