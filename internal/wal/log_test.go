package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xivm/internal/obs"
)

// collectRecords reads l's records with LSN >= from as a reopen does: by
// the scan of a second Log over l's directory, which l has left clean.
func collectRecords(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	r, err := openLog(l.dir, Options{Metrics: obs.New()}, from, func(lsn uint64, payload []byte) {
		got[lsn] = string(payload)
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if r.Truncated() != 0 {
		t.Fatalf("reopen cut %d bytes", r.Truncated())
	}
	r.Close()
	return got
}

func TestLogAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("lsn %d want %d", lsn, i)
		}
	}
	if l.LastLSN() != 5 {
		t.Fatalf("LastLSN %d", l.LastLSN())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 5 || l2.Truncated() != 0 {
		t.Fatalf("LastLSN %d truncated %d", l2.LastLSN(), l2.Truncated())
	}
	got := collectRecords(t, l2, 1)
	if len(got) != 5 || got[3] != "rec-3" {
		t.Fatalf("replayed %v", got)
	}
	if got := collectRecords(t, l2, 4); len(got) != 2 || got[4] != "rec-4" {
		t.Fatalf("partial replay %v", got)
	}
	// Appends continue the sequence after reopen.
	if lsn, err := l2.Append([]byte("rec-6")); err != nil || lsn != 6 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	l, err := openLog(dir, Options{SegmentBytes: 64, Metrics: reg}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("expected several segments, got %d", len(entries))
	}
	// Records ≤ 10 become removable once their segments are fully behind
	// the horizon.
	if err := l.RotateAndTruncate(10); err != nil {
		t.Fatal(err)
	}
	got := collectRecords(t, l, 1)
	// Everything after the horizon must survive; some records ≤ 10 may
	// survive too (their segment straddles the horizon).
	for lsn := uint64(11); lsn <= 20; lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("record %d lost by truncation", lsn)
		}
	}
	after, _ := os.ReadDir(dir)
	if len(after) >= len(entries) {
		t.Fatalf("truncation removed nothing (%d -> %d segments)", len(entries), len(after))
	}
	// The next append starts a fresh segment and continues the sequence.
	if lsn, err := l.Append([]byte("next")); err != nil || lsn != 21 {
		t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := openLog(dir, Options{SegmentBytes: 64, Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 21 || l2.Truncated() != 0 {
		t.Fatalf("reopen after truncate: last=%d torn=%d", l2.LastLSN(), l2.Truncated())
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segments")
	}
	return last
}

func buildLog(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogTornTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir, 3)
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	f.Write(garbage)
	f.Close()

	reg := obs.New()
	l, err := openLog(dir, Options{Metrics: reg}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Truncated() != int64(len(garbage)) {
		t.Fatalf("truncated %d want %d", l.Truncated(), len(garbage))
	}
	if reg.Counter("wal.recover.truncated").Value() != int64(len(garbage)) {
		t.Fatal("wal.recover.truncated not counted")
	}
	if got := collectRecords(t, l, 1); len(got) != 3 {
		t.Fatalf("records after cut: %v", got)
	}
}

func TestLogTornPartialFrame(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir, 3)
	seg := lastSegment(t, dir)
	data, _ := os.ReadFile(seg)
	// Cut into the last frame: its header survives but the payload is
	// short, so the length check rejects it.
	if err := os.WriteFile(seg, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Truncated() == 0 {
		t.Fatal("no truncation reported")
	}
	got := collectRecords(t, l, 1)
	if len(got) != 2 || got[2] != "rec-2" {
		t.Fatalf("records %v", got)
	}
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN %d", l.LastLSN())
	}
	// The sequence resumes at the cut: the torn record's LSN is reused.
	if lsn, err := l.Append([]byte("rec-3b")); err != nil || lsn != 3 {
		t.Fatalf("append after cut: lsn=%d err=%v", lsn, err)
	}
}

func TestLogTornMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir, 5)
	seg := lastSegment(t, dir)
	data, _ := os.ReadFile(seg)
	// Flip one payload byte of the second frame: its CRC fails, and
	// everything from there on — frames 2..5 — is the torn tail.
	frame1 := frameHeader + len("rec-1")
	data[frame1+frameHeader] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collectRecords(t, l, 1)
	if len(got) != 1 || got[1] != "rec-1" {
		t.Fatalf("records %v", got)
	}
	if l.Truncated() != int64(len(data)-frame1) {
		t.Fatalf("truncated %d want %d", l.Truncated(), len(data)-frame1)
	}
}

func TestLogTornSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{SegmentBytes: 64, Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(entries))
	}
	// Corrupt the FIRST frame of the second segment: the whole second
	// segment and every later one must go.
	second := filepath.Join(dir, entries[1].Name())
	data, _ := os.ReadFile(second)
	data[frameHeader] ^= 0xFF
	os.WriteFile(second, data, 0o644)

	l2, err := openLog(dir, Options{SegmentBytes: 64, Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	firstLSN, _ := parseSegName(entries[1].Name())
	if l2.LastLSN() != firstLSN-1 {
		t.Fatalf("LastLSN %d want %d", l2.LastLSN(), firstLSN-1)
	}
	if l2.Truncated() == 0 {
		t.Fatal("no truncation reported")
	}
	after, _ := os.ReadDir(dir)
	if len(after) != 1 {
		t.Fatalf("later segments not removed: %d left", len(after))
	}
}

func TestLogGapSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir, 2)
	// Fabricate a segment whose name does not continue the chain.
	bogus := filepath.Join(dir, segName(99))
	if err := os.WriteFile(bogus, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN %d", l.LastLSN())
	}
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Fatal("gap segment survived")
	}
}

func TestLogReset(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir, 4)
	l, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(100); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() != 99 {
		t.Fatalf("LastLSN %d", l.LastLSN())
	}
	if lsn, err := l.Append([]byte("fresh")); err != nil || lsn != 100 {
		t.Fatalf("append after reset: lsn=%d err=%v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collectRecords(t, l2, 1)
	if len(got) != 1 || got[100] != "fresh" {
		t.Fatalf("records %v", got)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		reg := obs.New()
		l, err := openLog(dir, Options{Sync: policy, Metrics: reg}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		fsyncs := reg.Counter("wal.fsync.count").Value()
		switch policy {
		case SyncAlways:
			if fsyncs < 10 {
				t.Fatalf("always: %d fsyncs", fsyncs)
			}
		case SyncNever:
			if fsyncs != 1 { // only the explicit Sync
				t.Fatalf("never: %d fsyncs", fsyncs)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedWriteLeavesItsPrefixSyncable: under SyncNever two appends are
// acknowledged unsynced and the third's write fails. The log refuses
// appends from then on, but Sync and Close still fsync the two whole frames
// before the failed one, and report the failure; once an fsync has failed
// no later one is tried.
func TestFailedWriteLeavesItsPrefixSyncable(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFailFS(OSFS)
	reg := obs.New()
	l, err := openLog(dir, Options{Sync: SyncNever, FS: ffs, Metrics: reg}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if _, err := l.Append([]byte(fmt.Sprint("r", i))); err != nil {
			t.Fatal(err)
		}
	}
	ffs.ErrAt = ffs.Ops()
	if _, err := l.Append([]byte("r2")); !errors.Is(err, ErrIO) {
		t.Fatalf("third append: err = %v, want the write error", err)
	}
	if _, err := l.Append([]byte("r3")); !errors.Is(err, ErrIO) {
		t.Fatalf("append after the failed write: err = %v, want the write error", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("Sync: err = %v, want the write error", err)
	}
	if n := reg.Counter("wal.fsync.count").Value(); n != 1 {
		t.Fatalf("%d fsyncs of the two frames before the failed write, want 1", n)
	}
	if err := l.Close(); !errors.Is(err, ErrIO) {
		t.Fatalf("Close: err = %v, want the write error", err)
	}
	l2, err := openLog(dir, Options{Metrics: obs.New()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collectRecords(t, l2, 1); len(got) != 2 || got[1] != "r0" || got[2] != "r1" {
		t.Fatalf("records %v, want r0 and r1", got)
	}

	// A failed fsync is sticky: no later Sync tries again.
	ffs = NewFailFS(OSFS)
	reg = obs.New()
	l3, err := openLog(t.TempDir(), Options{Sync: SyncNever, FS: ffs, Metrics: reg}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l3.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	ffs.ErrAt = ffs.Ops()
	for range 2 {
		if err := l3.Sync(); !errors.Is(err, ErrIO) {
			t.Fatalf("Sync: err = %v, want the failed fsync's", err)
		}
	}
	if n := ffs.Ops() - ffs.ErrAt; n != 1 {
		t.Fatalf("%d fsyncs tried after the first failed, want none", n-1)
	}
	l3.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("%s: %v %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Fatalf("round trip %q -> %q", c.in, got)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
