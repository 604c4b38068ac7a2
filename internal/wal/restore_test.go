package wal

import (
	"runtime"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// benchTenant is the benchmark's tenant: 1 MB of XMark and its seven views,
// with the pattern source of each.
func benchTenant(t *testing.T) (*core.Engine, map[string]string) {
	t.Helper()
	doc, err := xmltree.ParseString(xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(doc, core.WithMetrics(obs.New()))
	sources := map[string]string{}
	for _, v := range benchViews {
		if _, err := eng.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
			t.Fatal(err)
		}
		sources[v.Name] = v.Pattern
	}
	return eng, sources
}

// TestRestoredRowsShareTreeIDs: a view restored from a checkpoint holds the
// tree's IDs — one string per node, whichever row names it.
func TestRestoredRowsShareTreeIDs(t *testing.T) {
	w := difftest.NewWorkload(5, 12)
	dir := t.TempDir()
	db, err := Create(dir, []byte(w.Doc()), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q1", "Q2", "Q13"} {
		if _, err := db.AddView(name, xmark.View(name).String()); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range w.Statements {
		_, _ = db.Apply(mustStatement(t, src)) // a rejection is part of the workload
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats().Replayed != 0 {
		t.Fatalf("Open replayed %d records: the views did not come from the checkpoint", re.Stats().Replayed)
	}
	eng, entries := re.Engine(), 0
	for _, mv := range eng.Views {
		mv.View.Each(func(r algebra.Row) bool {
			for i := range mv.Shape.Width() {
				e := mv.Shape.Entry(r, i)
				if e.ID.IsNull() {
					continue
				}
				entries++
				n := eng.Doc.NodeByID(e.ID)
				if n == nil || unsafe.StringData(n.ID().Key()) != unsafe.StringData(e.ID.Key()) {
					t.Fatalf("view %s: the entry for %v is not the tree's own ID", mv.Name, e.ID)
				}
			}
			return true
		})
	}
	if entries == 0 {
		t.Fatal("the restored views hold no entries")
	}
}

// TestRestoredHeapPerNodeBudget holds what a tenant restored from a
// checkpoint keeps per document node — the benchmark's tenant after a
// restart: its tree with the label index of the labels its views asked for,
// store and seven views, and one published epoch. That is ~70 B (also
// under -race; ~73 and ~75 when the parse and ApplyOrds allocated every
// value and key on its own rather than cutting them from byte-slab chunks,
// ~79 with the seven views' snowcap lattices, which the served policy no
// longer builds, ~86 with a view row pointing at an array of 56-byte
// entries as well) with 32-byte nodes that name their labels by
// code, one key string per first-child chain, which ApplyOrds gives out as
// a parse does, canonical relations read from the label index and view
// rows that are one array of ID keys and images (~109 B with a key string
// per node, ~141 B with 64-byte nodes as well). A view entry holding a key
// of its own beside the tree's, one more key per row entry, adds ~5 B; a
// second per-label array beside the index, as the store kept before,
// ~28 B; frames that spell their labels out ~40 B more. The budget sits
// below each of them.
func TestRestoredHeapPerNodeBudget(t *testing.T) {
	eng, sources := benchTenant(t)
	dir := t.TempDir()
	if err := writeCheckpoint(OSFS, newWalMetrics(obs.New()), dir, eng.Snapshot(), sources, 1); err != nil {
		t.Fatal(err)
	}
	img, err := loadImage(OSFS, dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	re, err := img.Restore(core.WithMetrics(obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	re.Doc.Labeled("bidder") // a served tenant has answered `//bidder`; evaluating the views indexed the label already
	snap := re.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := re.Doc.Size()
	perNode := int(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("%d nodes, %d B of live heap per node", nodes, perNode)
	if perNode > 73 {
		t.Errorf("a restored engine + one epoch hold %d B per document node, budget 73", perNode)
	}
	runtime.KeepAlive(img)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(re)
}
