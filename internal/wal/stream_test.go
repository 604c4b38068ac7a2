package wal

import (
	"bytes"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/xmark"
)

// streamTestDB builds a durable DB with two XMark views, small segments (so
// multi-segment reads are exercised), and the given statements applied.
func streamTestDB(t *testing.T, stmts []string) *DB {
	t.Helper()
	db, err := Create(t.TempDir(), []byte(xmark.GenerateSmall(1)), Options{
		Metrics:      obs.New(),
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, name := range []string{"Q1", "Q2"} {
		if _, err := db.AddView(name, xmark.View(name).String()); err != nil {
			t.Fatalf("add view %s: %v", name, err)
		}
	}
	applyAll(t, db, stmts)
	return db
}

func TestReplFramesRoundTrip(t *testing.T) {
	db := streamTestDB(t, testStatements)
	last := db.LastLSN()
	if last == 0 {
		t.Fatal("no records journaled")
	}

	// Read everything from LSN 1 in bounded chunks; the concatenated decode
	// must reproduce every record in order.
	var recs []Record
	for from := uint64(1); from <= last; {
		frames, next, err := db.ReplFrames("", from, 256)
		if err != nil {
			t.Fatalf("ReplFrames(%d): %v", from, err)
		}
		if next <= from {
			t.Fatalf("ReplFrames(%d): next %d did not advance", from, next)
		}
		got, err := DecodeFrames(frames, from)
		if err != nil {
			t.Fatalf("DecodeFrames(%d): %v", from, err)
		}
		recs = append(recs, got...)
		from = next
	}
	if uint64(len(recs)) != last {
		t.Fatalf("decoded %d records, want %d", len(recs), last)
	}
	// The first records are the two view registrations, then the statements.
	if recs[0].Kind != RecordView || recs[0].ViewName != "Q1" {
		t.Fatalf("record 1 = %+v, want view Q1", recs[0])
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	nstmt := 0
	for _, r := range recs {
		if r.Kind == RecordStatement {
			nstmt++
		}
	}
	if nstmt != len(testStatements) {
		t.Fatalf("decoded %d statements, want %d", nstmt, len(testStatements))
	}
}

func TestReplFramesCaughtUp(t *testing.T) {
	db := streamTestDB(t, testStatements)
	last := db.LastLSN()
	frames, next, err := db.ReplFrames("", last+1, 0)
	if err != nil {
		t.Fatalf("ReplFrames past tip: %v", err)
	}
	if len(frames) != 0 || next != last+1 {
		t.Fatalf("past tip: got %d bytes, next %d (want empty, %d)", len(frames), next, last+1)
	}
}

func TestDecodeFramesRejectsCorruption(t *testing.T) {
	db := streamTestDB(t, testStatements)
	frames, _, err := db.ReplFrames("", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrames(frames, 1); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	// Any flipped bit — header or payload — must fail the whole read.
	for _, off := range []int{0, 5, 9, frameHeader + 1, len(frames) - 1} {
		bad := append([]byte(nil), frames...)
		bad[off] ^= 0x40
		if _, err := DecodeFrames(bad, 1); err == nil {
			t.Fatalf("corruption at offset %d decoded cleanly", off)
		}
	}
	// A truncated tail (torn network read) must fail too, not part-apply.
	if _, err := DecodeFrames(frames[:len(frames)-3], 1); err == nil {
		t.Fatal("torn tail decoded cleanly")
	}
	// Wrong starting LSN is a discontinuity.
	if _, err := DecodeFrames(frames, 2); err == nil {
		t.Fatal("LSN discontinuity decoded cleanly")
	}
}

func TestReplFramesTruncated(t *testing.T) {
	db := streamTestDB(t, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Age the log past the checkpoint twice so pruning truncates the prefix.
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReplFrames("", 1, 0); err != ErrLSNTruncated {
		t.Fatalf("ReplFrames(1) after truncation: %v, want ErrLSNTruncated", err)
	}
	// The snapshot fallback must cover the truncated prefix.
	img, err := db.ReplImageNow()
	if err != nil {
		t.Fatal(err)
	}
	if img.Manifest.LSN == 0 {
		t.Fatal("snapshot image at LSN 0")
	}
	if _, _, err := db.ReplFrames("", img.Manifest.LSN+1, 0); err != nil {
		t.Fatalf("stream resumes after snapshot: %v", err)
	}
}

func TestReplPinBlocksTruncation(t *testing.T) {
	db := streamTestDB(t, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A follower pinned at LSN 1 keeps the whole log alive across the
	// checkpoints that would otherwise truncate it.
	if _, _, err := db.ReplFrames("lagger", 1, 64); err != nil {
		t.Fatalf("pinning read: %v", err)
	}
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReplFrames("lagger", 1, 0); err != nil {
		t.Fatalf("pinned suffix truncated anyway: %v", err)
	}
	st := db.ReplStatusNow()
	if st.Followers != 1 {
		t.Fatalf("followers = %d, want 1", st.Followers)
	}

	// Once the pin expires the next checkpoint may truncate; the stream then
	// reports the typed snapshot-required error instead of a raw miss. The
	// expiry is stamped at read time, so refresh the pin under a tiny TTL.
	old := pinTTL
	pinTTL = time.Nanosecond
	defer func() { pinTTL = old }()
	if _, _, err := db.ReplFrames("lagger", 1, 64); err != nil {
		t.Fatalf("refreshing pin: %v", err)
	}
	time.Sleep(time.Millisecond)
	applyAll(t, db, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReplFrames("lagger", 1, 0); err != ErrLSNTruncated {
		t.Fatalf("after pin expiry: %v, want ErrLSNTruncated", err)
	}
}

func TestReplImageRestore(t *testing.T) {
	db := streamTestDB(t, testStatements)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img, err := db.ReplImageNow()
	if err != nil {
		t.Fatal(err)
	}
	// Re-verify through the public constructor, as a follower would after
	// pulling the image over the network.
	img2, err := NewImage(img.RawManifest, img.DocXML, img.Ords, img.Views)
	if err != nil {
		t.Fatalf("NewImage: %v", err)
	}
	eng, err := img2.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := eng.Doc.String(), db.Engine().Doc.String(); got != want {
		t.Fatal("restored document differs from live engine")
	}
	// ID-exact restore: the ordinal stream reproduces the live Dewey space.
	if !bytes.Equal(eng.Doc.EncodeOrds(), db.Engine().Doc.EncodeOrds()) {
		t.Fatal("restored document's ID space differs from the live engine")
	}
	if got, want := eng.Version(), db.Engine().Version(); got != want {
		t.Fatalf("restored version %d, want %d", got, want)
	}
	for _, mv := range db.Engine().Views {
		var rv *core.ManagedView
		for _, cand := range eng.Views {
			if cand.Name == mv.Name {
				rv = cand
			}
		}
		if rv == nil {
			t.Fatalf("restored engine missing view %s", mv.Name)
		}
		if !rv.View.EqualRows(algebra.Materialize(eng.Doc, rv.Pattern)) {
			t.Fatalf("restored view %s diverges from fresh evaluation", mv.Name)
		}
	}

	// Tampering with any shipped byte must be caught by verification.
	badDoc := append([]byte(nil), img.DocXML...)
	badDoc[len(badDoc)/2] ^= 1
	if _, err := NewImage(img.RawManifest, badDoc, img.Ords, img.Views); err == nil {
		t.Fatal("tampered document verified cleanly")
	}
	badOrds := append([]byte(nil), img.Ords...)
	badOrds[len(badOrds)/2] ^= 1
	if _, err := NewImage(img.RawManifest, img.DocXML, badOrds, img.Views); err == nil {
		t.Fatal("tampered ordinal stream verified cleanly")
	}
	for name, data := range img.Views {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 1
		views := map[string][]byte{name: bad}
		for n, d := range img.Views {
			if n != name {
				views[n] = d
			}
		}
		if _, err := NewImage(img.RawManifest, img.DocXML, img.Ords, views); err == nil {
			t.Fatalf("tampered view %s verified cleanly", name)
		}
	}
}

// TestRecoveryVersionMatchesLive pins the version-determinism contract
// replication depends on: recovering a log lands the engine on the version
// number the live engine reported.
func TestRecoveryVersionMatchesLive(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(1)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Insert-then-delete churn plus a replace (version +2).
	applyAll(t, db, []string{
		`insert <person id="pz"><name>Zed</name></person> into /site/people`,
		`for $x in /site/people/person insert <phone>+1 555 0000</phone>`,
		`delete /site/people/person/phone`,
		`replace /site/people/person/name with <name>Renamed</name>`,
	})
	want := db.Engine().Version()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Engine().Version(); got != want {
		t.Fatalf("recovered version %d, want %d", got, want)
	}
	checkViews(t, re)
}
