package wal

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/store"
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
	for _, v := range [][2]string{
		{"Q1", xmark.View("Q1").String()},
		{"Q2", xmark.View("Q2").String()},
		{"R1", `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
		{"R2", `//open_auction{ID}//bidder{ID}`},
		{"R3", `//bidder{ID}//increase{ID,val}`},
		{"R4", `//open_auction{ID}//initial{ID,val}`},
		{"R5", `//open_auction{ID}//increase{ID,val}`},
	} {
		if _, err := eng.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
		sources[v[0]] = v[1]
	}
	return eng, sources
}

// TestRestoredRowsShareTreeIDs: a view restored from a checkpoint holds the
// tree's IDs, not the ones its snapshot decoded to — one string per node,
// whichever of them names it — and a snapshot naming a node the document
// lacks fails the restore instead of installing a row nothing can maintain.
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
	lsn := db.LastLSN()
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
			for _, e := range r.Entries {
				if e.ID.IsNull() {
					continue
				}
				entries++
				n := eng.Doc.NodeByID(e.ID)
				if n == nil || unsafe.StringData(n.ID.Key()) != unsafe.StringData(e.ID.Key()) {
					t.Fatalf("view %s: the entry for %v is not the tree's own ID", mv.Name, e.ID)
				}
			}
			return true
		})
	}
	if entries == 0 {
		t.Fatal("the restored views hold no entries")
	}

	img, err := loadImage(OSFS, dir, lsn)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := store.DecodeSnapshot(img.Views["Q1"])
	if err != nil || len(rows) == 0 {
		t.Fatalf("Q1's snapshot decodes to %d rows, %v", len(rows), err)
	}
	missing := eng.Doc.Root.ID.Child("nowhere", dewey.OrdAt(99))
	rows[0].Entries[0].ID = missing
	img.Views["Q1"] = store.EncodeSnapshot(store.NewMaterializedView(xmark.View("Q1"), rows))
	_, err = img.Restore(core.WithMetrics(obs.New()))
	if err == nil || !strings.Contains(err.Error(), "Q1") || !strings.Contains(err.Error(), missing.String()) {
		t.Fatalf("restoring a snapshot that names a missing node: %v; want an error naming Q1 and %v", err, missing)
	}
}

// TestRestoredHeapPerNodeBudget holds what a tenant restored from a
// checkpoint keeps per document node — the benchmark's tenant after a
// restart: its tree with its label index, store and seven views, and one
// published epoch. That is ~151 B with 64-byte nodes that name their labels
// by code and canonical relations read from the label index. Keeping the IDs
// the view snapshots decode to beside the tree's, one more key per row
// entry, is ~156; a second per-label array beside the index, as the store
// kept before, adds ~28 B; frames that spell their labels out ~40 B more.
// The budget sits between the first two.
func TestRestoredHeapPerNodeBudget(t *testing.T) {
	eng, sources := benchTenant(t)
	dir := t.TempDir()
	if err := writeCheckpoint(OSFS, newWalMetrics(obs.New()), dir, eng, sources, 1); err != nil {
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
	re.Doc.Labeled("bidder") // a served tenant has its label index; rebuilding the lattices built it already
	snap := re.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes := re.Doc.Size()
	perNode := int(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("%d nodes, %d B of live heap per node", nodes, perNode)
	if perNode > 153 {
		t.Errorf("a restored engine + one epoch hold %d B per document node, budget 153", perNode)
	}
	runtime.KeepAlive(img)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(re)
}
