package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"xivm/internal/core"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestCheckpointBytesUnchanged pins the checkpoint's bytes to the
// whole-value encoders it no longer calls: after a difftest workload has
// pushed the document, its ordinals and two views (one storing val and
// cont) off their parsed state, the directory holds doc.xml, doc.ords and
// MANIFEST and nothing else, each exactly what String, EncodeOrds and
// EncodeManifest over HashBytes of those and the views' patterns would
// have written, and it verifies through loadImage.
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
	entries, err := os.ReadDir(filepath.Join(dir, ckptName(lsn)))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"MANIFEST", "doc.ords", "doc.xml"}) {
		t.Errorf("the checkpoint holds %q, want MANIFEST, doc.ords and doc.xml", names)
	}

	file := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, ckptName(lsn), name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := NewManifest(lsn)
	want.EngineVersion = eng.Version()
	doc := []byte(eng.Doc.String())
	if !bytes.Equal(file("doc.xml"), doc) {
		t.Error("doc.xml is not Doc.String()")
	}
	want.DocHash, want.DocBytes = HashBytes(doc), int64(len(doc))
	ords := eng.Doc.EncodeOrds()
	if !bytes.Equal(file("doc.ords"), ords) {
		t.Error("doc.ords is not Doc.EncodeOrds()")
	}
	want.OrdsHash, want.OrdsBytes = HashBytes(ords), int64(len(ords))
	for _, mv := range eng.Views {
		want.Views = append(want.Views, ManifestView{Name: mv.Name, Pattern: db.sources[mv.Name]})
	}
	if !bytes.Equal(file("MANIFEST"), EncodeManifest(want)) {
		t.Errorf("MANIFEST differs:\n%s\nwant\n%s", file("MANIFEST"), EncodeManifest(want))
	}
	if _, err := loadImage(OSFS, dir, lsn); err != nil {
		t.Errorf("checkpoint does not verify: %v", err)
	}
}

// TestCheckpointAllocBudget: a checkpoint is streamed from an epoch's tree
// as it lies, through a buffer it borrows from a pool, so a warm one
// allocates only its three files' digests and opens and its manifest —
// about 0.5% of what it writes (the benchmark's document: 1 MB of XMark;
// its seven views are named in the manifest, not written). The budget is
// a hundred-and-twenty-eighth. Writing each view's rows beside the
// document, with a label dictionary per view, came to 1.1%, a buffer of
// its own to a further 1.7%, a copy of the views' row headers plus an
// ordinal vector per node to 45%, one whole-file copy of doc.xml is 60% on
// its own, and building doc.xml as a string, converting it to bytes,
// collecting doc.ords and re-upserting and re-encoding every view came to
// 8×. The pool's first Get is the only buffer a cold checkpoint allocates
// on top: cold and warm are a buffer apart, give or take a sixty-fourth.
func TestCheckpointAllocBudget(t *testing.T) {
	doc, err := xmltree.ParseString(xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	eng := core.New(doc, core.WithMetrics(reg))
	sources := map[string]string{}
	for _, v := range benchViews {
		if _, err := eng.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
			t.Fatal(err)
		}
		sources[v.Name] = v.Pattern
	}
	dir := t.TempDir()
	m := newWalMetrics(reg)
	snap := eng.Snapshot()

	// write checkpoints the epoch at lsn and returns what that allocated.
	write := func(lsn uint64) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := writeCheckpoint(OSFS, m, dir, snap, sources, lsn); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// A collection empties the pool, so the collector stays off from the
	// cold checkpoint to the warm ones: otherwise two of them in between
	// drop the buffer, and a warm checkpoint allocates it again. Whatever
	// else runs only adds to a measurement, so warm is the least of three.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	cold := write(1)
	wrote := uint64(m.ckptBytes.Value())
	warm := min(write(2), write(3), write(4))
	debug.SetGCPercent(gcPercent)
	for _, lsn := range []uint64{1, 2, 3, 4} {
		if _, err := loadImage(OSFS, dir, lsn); err != nil {
			t.Errorf("checkpoint %d does not verify: %v", lsn, err)
		}
	}
	t.Logf("checkpoint wrote %d KB; it allocated %d KB cold and %d KB warm", wrote>>10, cold>>10, warm>>10)
	budget := wrote / 128
	if raceDetector {
		budget += ckptBufBytes // the pool may have dropped the buffer
	}
	if warm > budget {
		t.Errorf("a warm checkpoint allocated %d KB to write %d KB, budget a hundred-and-twenty-eighth", warm>>10, wrote>>10)
	}
	if cold > warm+ckptBufBytes+wrote/64 {
		t.Errorf("a cold checkpoint allocated %d KB, a warm one %d KB: more than the pool's first buffer apart", cold>>10, warm>>10)
	}
}
