package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xivm/internal/core"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/store"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestCheckpointBytesUnchanged pins the checkpoint's bytes to the
// whole-value encoders it no longer calls: after a difftest workload has
// pushed the document, its ordinals and two views (one storing val and
// cont) off their parsed state, every file is exactly what String,
// EncodeOrds, EncodeSnapshot over a re-upserted copy and EncodeManifest over
// HashBytes of those would have written, and the directory verifies
// through loadImage.
func TestCheckpointBytesUnchanged(t *testing.T) {
	w := difftest.NewWorkload(11, 24)
	dir := t.TempDir()
	db, err := Create(dir, []byte(w.Doc()), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, v := range [][2]string{
		{"Q1", xmark.View("Q1").String()},
		{"names", `//person{ID}/name{ID,val,cont}`},
	} {
		if _, err := db.AddView(v[0], v[1]); err != nil {
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
	eng := db.Engine()

	file := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, ckptName(lsn), name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := store.NewManifest(lsn)
	want.EngineVersion = eng.Version()
	doc := []byte(eng.Doc.String())
	if !bytes.Equal(file("doc.xml"), doc) {
		t.Error("doc.xml is not Doc.String()")
	}
	want.DocHash, want.DocBytes = store.HashBytes(doc), int64(len(doc))
	ords := eng.Doc.EncodeOrds()
	if !bytes.Equal(file("doc.ords"), ords) {
		t.Error("doc.ords is not Doc.EncodeOrds()")
	}
	want.OrdsHash, want.OrdsBytes = store.HashBytes(ords), int64(len(ords))
	for _, mv := range eng.Views {
		snap := store.EncodeSnapshot(store.NewMaterializedView(mv.Pattern, mv.View.Rows()))
		if !bytes.Equal(file(mv.Name+".xivm"), snap) {
			t.Errorf("%s.xivm is not EncodeSnapshot of the view's rows", mv.Name)
		}
		want.Views = append(want.Views, store.ManifestView{
			Name: mv.Name, Pattern: db.sources[mv.Name], Hash: store.HashBytes(snap), Bytes: int64(len(snap)),
		})
	}
	if !bytes.Equal(file("MANIFEST"), store.EncodeManifest(want)) {
		t.Errorf("MANIFEST differs:\n%s\nwant\n%s", file("MANIFEST"), store.EncodeManifest(want))
	}
	if _, err := loadImage(OSFS, dir, lsn); err != nil {
		t.Errorf("checkpoint does not verify: %v", err)
	}
}

// TestCheckpointAllocBudget: a checkpoint is streamed from the tree and the
// rows as they lie, so writing one allocates its buffers, its dictionaries
// and its manifest — 3% of what it writes (5% under the race detector). The
// budget is an eighth: a copy of the views' row headers plus an ordinal
// vector per node came to 0.45× between them, one whole-file copy of doc.xml
// is 0.6× on its own, and building doc.xml as a string, converting it to
// bytes, collecting doc.ords and re-upserting and re-encoding every view
// came to 8× on this document (the benchmark's: 1 MB of XMark, its seven
// views).
func TestCheckpointAllocBudget(t *testing.T) {
	doc, err := xmltree.ParseString(xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	eng := core.New(doc, core.WithMetrics(reg))
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
	dir := t.TempDir()
	m := newWalMetrics(reg)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := writeCheckpoint(OSFS, m, dir, eng, sources, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	wrote := uint64(m.ckptBytes.Value())
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint wrote %d KB and allocated %d KB", wrote>>10, allocated>>10)
	if allocated > wrote/8 {
		t.Errorf("checkpoint allocated %d KB to write %d KB, budget an eighth", allocated>>10, wrote>>10)
	}
	if _, err := loadImage(OSFS, dir, 1); err != nil {
		t.Errorf("checkpoint does not verify: %v", err)
	}
}
