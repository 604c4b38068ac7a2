package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// benchViews are the seven views of the repo benchmark's tenant.
var benchViews = []ViewSource{
	{"Q1", xmark.View("Q1").String()},
	{"Q2", xmark.View("Q2").String()},
	{"R1", `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
	{"R2", `//open_auction{ID}//bidder{ID}`},
	{"R3", `//bidder{ID}//increase{ID,val}`},
	{"R4", `//open_auction{ID}//initial{ID,val}`},
	{"R5", `//open_auction{ID}//increase{ID,val}`},
}

// createDoc is 100 KB of XMark, which carries every label benchViews read.
var createDoc = sync.OnceValue(func() string {
	return xmark.Generate(xmark.Config{TargetBytes: 100 << 10, Seed: 1})
})

func createOptions(policy SyncPolicy, reg *obs.Metrics) Options {
	return Options{Sync: policy, Metrics: reg, Engine: []core.Option{core.WithMetrics(obs.New())}}
}

// TestCreateIsOneWalkAndOneFsync: a create with the benchmark's seven views
// indexes the ten labels they read in one walk of the document, and syncs
// their seven records with one fsync, under every sync policy: the fsyncs
// it issues are a bare create's (checkpoint-0's files) plus one. The
// records sit at LSN 1..7, and the views hold a fresh evaluation, though
// checkpoint-0 was written beside their materialization.
func TestCreateIsOneWalkAndOneFsync(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			bareReg := obs.New()
			bare, err := CreateWithViews(t.TempDir(), createDoc(), nil, createOptions(policy, bareReg))
			if err != nil {
				t.Fatal(err)
			}
			bare.Close()
			reg := obs.New()
			db, err := CreateWithViews(t.TempDir(), createDoc(), benchViews, createOptions(policy, reg))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if n := xmltree.LabelWalks(db.Engine().Doc); n != 1 {
				t.Errorf("the create walked the document %d times for labels, want 1", n)
			}
			fsyncs, bareFsyncs := reg.Counter("wal.fsync.count").Value(), bareReg.Counter("wal.fsync.count").Value()
			if fsyncs-bareFsyncs != 1 {
				t.Errorf("the create issued %d fsyncs, a create without views %d: want one more for the seven records", fsyncs, bareFsyncs)
			}
			if db.LastLSN() != uint64(len(benchViews)) {
				t.Errorf("log ends at LSN %d, want %d", db.LastLSN(), len(benchViews))
			}
			checkViews(t, db)
		})
	}
}

// TestRestoreIsOneWalk: restoring a checkpoint of the created tenant
// installs its seven views with one walk of the document for their
// labels, and they hold what the live ones do.
func TestRestoreIsOneWalk(t *testing.T) {
	dir := t.TempDir()
	db, err := CreateWithViews(dir, createDoc(), benchViews, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := loadImage(OSFS, dir, db.LastLSN())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := img.Restore(core.WithMetrics(obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	if n := xmltree.LabelWalks(eng.Doc); n != 1 {
		t.Errorf("restore walked the document %d times for labels, want 1", n)
	}
	if len(eng.Views) != len(benchViews) {
		t.Fatalf("restored %d views, want %d", len(eng.Views), len(benchViews))
	}
	for i, mv := range db.Engine().Views {
		if got := eng.Views[i]; got.Name != mv.Name || !got.View.EqualRows(mv.View.Rows()) {
			t.Fatalf("restored view %s differs from the live one", mv.Name)
		}
	}
}

// TestCreateWithViewsMatchesCreateThenAddView: the one-pass create leaves
// the bytes that Create followed by one AddView a view leaves: the same
// checkpoint-0 files and the same log segments.
func TestCreateWithViewsMatchesCreateThenAddView(t *testing.T) {
	onePass, stepwise := t.TempDir(), t.TempDir()
	db, err := CreateWithViews(onePass, createDoc(), benchViews, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Create(stepwise, []byte(createDoc()), createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range benchViews {
		if _, err := db.AddView(v.Name, v.Pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files := func(dir string) map[string][]byte {
		t.Helper()
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			out[strings.TrimPrefix(path, dir)] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := files(onePass), files(stepwise)
	if len(got) != len(want) || len(want) != 4 {
		t.Fatalf("one pass left %d files, Create and AddView %d; want 4 (three of checkpoint-0 and a segment)", len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Errorf("%s: one pass wrote %d bytes, Create and AddView %d, or other ones", name, len(got[name]), len(b))
		}
	}
}

// TestCreateRefusesABadViewFirst: a view CreateWithViews refuses — a bad
// name, a second of the same name, a pattern that does not parse or
// stores nothing — fails the create before it touches the disk.
func TestCreateRefusesABadViewFirst(t *testing.T) {
	for _, views := range [][]ViewSource{
		{{"bad/name", `//a{ID}`}},
		{{"V", `//a{ID}`}, {"V", `//b{ID}`}},
		{{"V", `//a{ID`}},
		{{"V", `//a//b`}},
	} {
		dir := filepath.Join(t.TempDir(), "t")
		if _, err := CreateWithViews(dir, createDoc(), views, createOptions(SyncAlways, obs.New())); err == nil {
			t.Fatalf("views %v accepted", views)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("views %v: the refused create left %s behind (%v)", views, dir, err)
		}
	}
}

// TestCreateOverAKilledCreate: a directory a create was killed in holds a
// log but no checkpoint — not a database. A create there starts the log
// over: its records are at LSN 1..N again, and it reopens with its views.
func TestCreateOverAKilledCreate(t *testing.T) {
	dir := t.TempDir()
	db, err := CreateWithViews(dir, createDoc(), benchViews, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.RemoveAll(filepath.Join(dir, ckptName(0))); err != nil {
		t.Fatal(err)
	}
	db, err = CreateWithViews(dir, createDoc(), benchViews[:2], createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	if db.LastLSN() != 2 {
		t.Fatalf("log ends at LSN %d over the killed create's, want 2", db.LastLSN())
	}
	db.Close()
	db, err = Open(dir, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Stats().Replayed; got != 2 || len(db.Engine().Views) != 2 {
		t.Fatalf("reopened with %d records replayed and %d views, want 2 and 2", got, len(db.Engine().Views))
	}
	checkViews(t, db)
}

// TestOpenInstallsViewRecordsInOneWalk: opening a created tenant from
// checkpoint-0 replays its seven view records as one run, indexing the
// ten labels they read in one walk of the document, not one walk a label.
// A run of view records with a bad one among them installs the others and
// skips that one alone.
func TestOpenInstallsViewRecordsInOneWalk(t *testing.T) {
	dir := t.TempDir()
	db, err := CreateWithViews(dir, createDoc(), benchViews, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	re, err := Open(dir, createOptions(SyncAlways, obs.New()))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.CheckpointLSN != 0 || st.Replayed != len(benchViews) {
		t.Fatalf("recovery %+v, want %d view records replayed from checkpoint-0", st, len(benchViews))
	}
	if n := xmltree.LabelWalks(re.Engine().Doc); n != 1 {
		t.Errorf("replaying the view records walked the document %d times for labels, want 1", n)
	}
	checkViews(t, re)

	recs := []Record{
		{LSN: 1, Kind: RecordView, ViewName: "Q1", ViewPattern: xmark.View("Q1").String()},
		{LSN: 2, Kind: RecordView, ViewName: "bad", ViewPattern: `//[`},
		{LSN: 3, Kind: RecordView, ViewName: "bare", ViewPattern: `//person//name`}, // stores nothing
		{LSN: 4, Kind: RecordView, ViewName: "R1", ViewPattern: benchViews[2].Pattern},
	}
	d, err := xmltree.ParseString(createDoc())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(d, core.WithMetrics(obs.New()))
	res, err := Replay(eng, recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Skipped != 2 || len(res.Views) != 2 || res.Views[0].LSN != 1 || res.Views[1].LSN != 4 {
		t.Fatalf("replayed %+v, want Q1 and R1 installed and the other two skipped", res)
	}
	if len(eng.Views) != 2 || eng.Views[0].Name != "Q1" || eng.Views[1].Name != "R1" {
		t.Fatalf("installed %d views", len(eng.Views))
	}
}
