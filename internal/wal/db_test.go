package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/xmark"
)

// mustStatement parses a statement in the update grammar.
func mustStatement(t *testing.T, src string) *update.Statement {
	t.Helper()
	st, err := update.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

// testStatements exercises inserts, deletes and a replace against the
// small XMark document.
var testStatements = []string{
	`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
	`insert <person id="personX"><name>Nova Quinn</name></person> into /site/people`,
	`delete /site/people/person/phone`,
	`replace /site/people/person/name with <name>Replaced Name</name>`,
	`for $x in /site/open_auctions/open_auction insert <bidder><date>01/01/2011</date><increase>4.50</increase></bidder>`,
	`delete /site/closed_auctions/closed_auction`,
}

// checkViews asserts every managed view matches a fresh evaluation of its
// pattern over the recovered document — the difftest oracle.
func checkViews(t *testing.T, db *DB) {
	t.Helper()
	if len(db.Engine().Views) == 0 {
		t.Fatal("no views recovered")
	}
	for _, mv := range db.Engine().Views {
		want := algebra.Materialize(db.Engine().Doc, mv.Pattern)
		if !mv.View.EqualRows(want) {
			t.Fatalf("view %s diverges from fresh evaluation after recovery", mv.Name)
		}
	}
}

func applyAll(t *testing.T, db *DB, stmts []string) {
	t.Helper()
	for _, src := range stmts {
		if _, err := db.Apply(mustStatement(t, src)); err != nil {
			t.Fatalf("apply %q: %v", src, err)
		}
	}
}

func TestDBCreateApplyReopen(t *testing.T) {
	dir := t.TempDir()
	doc := xmark.GenerateSmall(1, 0)
	db, err := Create(dir, []byte(doc), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Q1", "Q2"} {
		if _, err := db.AddView(name, xmark.View(name).String()); err != nil {
			t.Fatalf("add view %s: %v", name, err)
		}
	}
	applyAll(t, db, testStatements)
	wantDoc := db.Engine().Doc.String()
	wantLSN := db.LastLSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Engine().Doc.String(); got != wantDoc {
		t.Fatal("recovered document differs from the pre-close document")
	}
	checkViews(t, re)
	st := re.Stats()
	// 2 view records + every statement were replayed from LSN 1.
	if st.CheckpointLSN != 0 || st.Replayed != len(testStatements)+2 || st.Skipped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if re.LastLSN() != wantLSN {
		t.Fatalf("LastLSN %d want %d", re.LastLSN(), wantLSN)
	}
	// The recovered DB accepts further journaled statements.
	if _, err := re.Apply(mustStatement(t, `delete /site/catgraph`)); err != nil {
		t.Fatal(err)
	}
}

func TestDBCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	db, err := Create(dir, []byte(xmark.GenerateSmall(2, 0)), Options{Metrics: reg, KeepCheckpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// With KeepCheckpoints=1 the horizon is the checkpoint just written:
	// every pre-checkpoint segment is removable.
	segs, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Fatalf("%d segments survive a full truncation", len(segs))
	}
	if reg.Counter("wal.checkpoint.count").Value() == 0 {
		t.Fatal("wal.checkpoint.count not counted")
	}
	applyAll(t, db, []string{`delete /site/catgraph`})
	wantDoc := db.Engine().Doc.String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.CheckpointLSN == 0 {
		t.Fatal("recovery did not start from the checkpoint")
	}
	if st.Replayed != 1 { // only the post-checkpoint delete
		t.Fatalf("replayed %d records, want 1", st.Replayed)
	}
	if got := re.Engine().Doc.String(); got != wantDoc {
		t.Fatal("recovered document differs")
	}
	checkViews(t, re)
}

// TestDBAutoCheckpoint: the record budget triggers checkpoints, and
// recovery starts from one. A checkpoint is written off the writer; Close
// waits for the one in flight, so the listing after it sees it.
func TestDBAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(3, 0)), Options{Metrics: obs.New(), CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	lsns, err := listCheckpoints(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	// 6 statements at 3 per checkpoint: at least one auto checkpoint beyond
	// the initial LSN-0 one.
	if len(lsns) < 2 || lsns[len(lsns)-1] == 0 {
		t.Fatalf("auto checkpoints missing: %v", lsns)
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
	if re.Stats().CheckpointLSN == 0 {
		t.Fatal("recovery ignored the auto checkpoint")
	}
}

// TestDBSkipsRejectedStatement: a statement that journals and is then
// rejected by the engine (deleting the document root is refused) must be
// skipped — not fatal — during replay.
func TestDBSkipsRejectedStatement(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(4, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Apply(mustStatement(t, `delete /site`)); err == nil {
		t.Fatal("root delete accepted")
	}
	applyAll(t, db, []string{`delete /site/catgraph`})
	wantDoc := db.Engine().Doc.String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	re, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.Skipped != 1 || st.Replayed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if reg.Counter("wal.recover.skipped").Value() != 1 {
		t.Fatal("wal.recover.skipped not counted")
	}
	if re.Engine().Doc.String() != wantDoc {
		t.Fatal("recovered document differs")
	}
}

// TestDBReplayChurnTail: a tail of insertions under a subtree that is
// later deleted wholesale, replayed from a checkpoint.
func TestDBReplayChurnTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(5, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil { // tail after here is statements only
		t.Fatal(err)
	}
	applyAll(t, db, []string{
		`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
		`for $x in /site/people/person insert <homepage>http://example.net/~new</homepage>`,
		`insert <person id="personX"><name>Nova Quinn</name></person> into /site/people`,
		`delete /site/people`, // kills every insertion above
		`delete /site/catgraph`,
	})
	wantDoc := db.Engine().Doc.String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Engine().Doc.String() != wantDoc {
		t.Fatal("recovered document differs from the pre-close document")
	}
	checkViews(t, re)
}

// TestDBReplayViewRecordMidTail: a view registration between statements
// lands at its exact position in the sequence.
func TestDBReplayViewRecordMidTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(6, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, []string{`for $x in /site/people/person insert <phone>+33 555 0100</phone>`})
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, []string{`delete /site/people`})
	wantDoc := db.Engine().Doc.String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.HasView("Q1") {
		t.Fatal("replayed view registration not tracked for the next checkpoint")
	}
	if re.Engine().Doc.String() != wantDoc {
		t.Fatal("recovered document differs")
	}
	checkViews(t, re)
}

// TestOpenFallsBackToOlderCheckpoint: a corrupted newest checkpoint must be
// skipped, and the log retains enough records for the older fallback to
// reach the tip.
func TestOpenFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(7, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements[:3])
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements[3:])
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, []string{`delete /site/catgraph`})
	wantDoc := db.Engine().Doc.String()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	lsns, err := listCheckpoints(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 {
		t.Fatalf("checkpoints %v, want 2", lsns)
	}
	// Corrupt the newest checkpoint's document so its hash check fails.
	docPath := filepath.Join(dir, ckptName(lsns[1]), "doc.xml")
	data, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(docPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	re, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.BadCheckpoints != 1 {
		t.Fatalf("BadCheckpoints %d", st.BadCheckpoints)
	}
	if st.CheckpointLSN != lsns[0] {
		t.Fatalf("recovered from LSN %d, want fallback %d", st.CheckpointLSN, lsns[0])
	}
	if reg.Counter("wal.recover.badcheckpoints").Value() != 1 {
		t.Fatal("wal.recover.badcheckpoints not counted")
	}
	if re.Engine().Doc.String() != wantDoc {
		t.Fatal("fallback recovery missed acknowledged statements")
	}
	checkViews(t, re)
}

func TestCreateRefusesExistingDatabase(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(8, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Create(dir, []byte(xmark.GenerateSmall(8, 0)), Options{Metrics: obs.New()}); err == nil {
		t.Fatal("Create over an existing database succeeded")
	}
	// OpenOrCreate takes the Open path instead.
	re, err := OpenOrCreate(dir, []byte(xmark.GenerateSmall(8, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{Metrics: obs.New()}); err == nil {
		t.Fatal("Open of an empty directory succeeded")
	}
}

func TestAddViewValidation(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(9, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddView("bad/name", xmark.View("Q1").String()); err == nil {
		t.Fatal("path separator in view name accepted")
	}
	if _, err := db.AddView("nostore", `//person//name`); err == nil {
		t.Fatal("storeless pattern accepted")
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err == nil {
		t.Fatal("duplicate view accepted")
	}
}

// TestJournalAllocatesNoStrings: a statement is formatted into the
// journal's scratch and framed from there, so journaling a delete or an
// insert allocates nothing — not a Builder's growth, a path's string and
// their copy, nor the serializer's sink per tree of the forest.
func TestJournalAllocatesNoStrings(t *testing.T) {
	db, err := Create(t.TempDir(), []byte(xmark.GenerateSmall(3, 0)), Options{Sync: SyncNever, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tc := range []struct {
		src    string
		allocs float64
	}{
		{`delete /site/people/person[@id="person3"]/name`, 0},
		{`insert <person id="p"><name>N</name></person> into /site/people/person[@id="person3"]`, 0},
	} {
		st := mustStatement(t, tc.src)
		if got := testing.AllocsPerRun(50, func() { db.journal(st) }); got > tc.allocs {
			t.Errorf("journaling %q allocates %.0f times, want at most %.0f", tc.src, got, tc.allocs)
		}
	}
}

// readCountFS counts the reads of each log segment.
type readCountFS struct {
	FS
	reads map[string]int
}

func (c *readCountFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, segExt) {
		c.reads[filepath.Base(name)]++
	}
	return c.FS.ReadFile(name)
}

// TestOpenReadsTheLogOnce: Open reads each segment of a clean log once, and
// of a torn log it reads no segment twice and none it drops; the torn bytes
// it counts are the torn segment's tail plus every later segment.
func TestOpenReadsTheLogOnce(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(1, 0)), Options{Metrics: obs.New(), SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*"+segExt))
	if len(segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(segs))
	}
	open := func() (*readCountFS, *obs.Metrics) {
		t.Helper()
		fsys, reg := &readCountFS{FS: OSFS, reads: map[string]int{}}, obs.New()
		re, err := Open(dir, Options{Metrics: reg, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		re.Close()
		return fsys, reg
	}
	fsys, _ := open()
	for _, s := range segs {
		if n := fsys.reads[filepath.Base(s)]; n != 1 {
			t.Errorf("clean log: %s read %d times, want 1", filepath.Base(s), n)
		}
	}

	// Flip the last byte of the second segment: its last frame fails its
	// checksum, and the segments after it go unread.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for pos := 0; pos < len(data); pos += frameHeader + int(binary.LittleEndian.Uint32(data[pos:])) {
		last = pos
	}
	want := int64(len(data) - last)
	for _, s := range segs[2:] {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		want += fi.Size()
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	fsys, reg := open()
	for i, s := range segs {
		n, wantReads := fsys.reads[filepath.Base(s)], 1
		if i > 1 {
			wantReads = 0
		}
		if n != wantReads {
			t.Errorf("torn log: %s read %d times, want %d", filepath.Base(s), n, wantReads)
		}
	}
	if got := reg.Counter("wal.recover.truncated").Value(); got != want {
		t.Errorf("wal.recover.truncated = %d, want %d", got, want)
	}
}
