package server

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

// hookFS is the real filesystem with two one-shot hooks: onSync runs
// inside the next file Sync (the log's fsync of a journaled statement) and
// failMkdir fails the next MkdirAll (the first step of writing a
// checkpoint). Hooks are armed by the test and fire on the writer
// goroutine.
type hookFS struct {
	wal.FS
	mu        sync.Mutex
	onSync    func()
	failMkdir error
}

func (f *hookFS) armSync(fn func()) { f.mu.Lock(); f.onSync = fn; f.mu.Unlock() }

func (f *hookFS) armMkdir(err error) { f.mu.Lock(); f.failMkdir = err; f.mu.Unlock() }

func (f *hookFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return hookFile{File: file, fs: f}, nil
}

func (f *hookFS) MkdirAll(name string, perm fs.FileMode) error {
	f.mu.Lock()
	err := f.failMkdir
	f.failMkdir = nil
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.FS.MkdirAll(name, perm)
}

type hookFile struct {
	wal.File
	fs *hookFS
}

func (h hookFile) Sync() error {
	h.fs.mu.Lock()
	fn := h.fs.onSync
	h.fs.onSync = nil
	h.fs.mu.Unlock()
	if fn != nil {
		fn()
	}
	return h.File.Sync()
}

// durableShard serves a fresh database in dir, created over fsys with the
// test views, the way a durable registry tenant is served.
func durableShard(t *testing.T, dir string, opts wal.Options) *Shard {
	t.Helper()
	db, err := wal.Create(dir, []byte(xmark.GenerateSmall(1, 0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range testViewSpecs() {
		if _, err := db.AddView(v.Name, v.Pattern); err != nil {
			t.Fatal(err)
		}
	}
	return NewShard(DefaultTenant, db, db.Close, Config{Metrics: obs.New()})
}

// closeShard drains the shard and closes its database.
func closeShard(t *testing.T, sh *Shard) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sh.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// requireServedIsRecovered holds a closed shard's last epoch to what
// wal.Open recovers from its directory: the same document and Dewey IDs,
// the same version and the same rows in every view.
func requireServedIsRecovered(t *testing.T, served *core.Snapshot, dir string) *core.Engine {
	t.Helper()
	db, err := wal.Open(dir, wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	eng := db.Engine()
	if got, want := served.Doc().String(), eng.Doc.String(); got != want {
		t.Fatalf("served document (%d bytes) differs from the recovered one (%d bytes)", len(got), len(want))
	}
	if !bytes.Equal(served.Doc().EncodeOrds(), eng.Doc.EncodeOrds()) {
		t.Fatal("served and recovered Dewey-ID spaces differ")
	}
	if served.Version != eng.Version() {
		t.Fatalf("served version %d, recovered %d", served.Version, eng.Version())
	}
	if len(served.Views) != len(eng.Views) {
		t.Fatalf("served %d views, recovered %d", len(served.Views), len(eng.Views))
	}
	for i, mv := range eng.Views {
		vs := &served.Views[i]
		if vs.Name != mv.Name || !mv.View.EqualRows(vs.Rows.AppendTo(nil)) {
			t.Fatalf("view %s: served rows differ from the recovered ones", mv.Name)
		}
	}
	return eng
}

// TestDeadlineDuringJournalServesTheLog: a request whose deadline fires
// while its statement is being journaled — here, inside the log's fsync —
// still has its statement applied and published, because the log now
// holds it and recovery will replay it. What the shard served last is
// exactly what the directory recovers to.
func TestDeadlineDuringJournalServesTheLog(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{FS: wal.OSFS}
	sh := durableShard(t, dir, wal.Options{Metrics: obs.New(), FS: fsys})
	before := sh.Epoch().Version

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fsys.armSync(cancel)
	// The ack races the cancellation, so either outcome is a valid answer:
	// the statement's fate is its journal record.
	_, _, err := sh.Apply(ctx, mustStatement(t, `insert <person id="pj"><name>Journaled</name></person> into /site/people`))
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("apply: %v", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the log's fsync never ran the armed cancellation")
	}
	closeShard(t, sh)

	served := sh.Epoch()
	requireServedIsRecovered(t, served, dir)
	if served.Version != before+1 || !strings.Contains(served.DocXML(), `id="pj"`) {
		t.Fatalf("served version %d, want %d with the journaled insert", served.Version, before+1)
	}
}

// TestAutoCheckpointFailureAcksTheStatement: an automatic checkpoint that
// fails after its statement landed does not fail the statement. The
// statement is acknowledged, served and recovered; the failure is counted
// in wal.checkpoint.errors, and the next statement retries the checkpoint.
func TestAutoCheckpointFailureAcksTheStatement(t *testing.T) {
	dir := t.TempDir()
	fsys := &hookFS{FS: wal.OSFS}
	walReg := obs.New()
	sh := durableShard(t, dir, wal.Options{Metrics: walReg, FS: fsys, CheckpointEvery: 1})

	fsys.armMkdir(errors.New("injected checkpoint failure"))
	_, version, err := sh.Apply(context.Background(), mustStatement(t, `insert <person id="pc"><name>Checkpointed</name></person> into /site/people`))
	if err != nil {
		t.Fatalf("a statement that landed was failed by its checkpoint: %v", err)
	}
	if version != sh.Epoch().Version || !strings.Contains(sh.Epoch().DocXML(), `id="pc"`) {
		t.Fatal("the acknowledged insert is not served")
	}
	if got := walReg.CounterValue("wal.checkpoint.errors"); got != 1 {
		t.Fatalf("wal.checkpoint.errors = %d, want 1", got)
	}
	ckpts := walReg.CounterValue("wal.checkpoint.count")

	// The record budget stays used up, so the next statement checkpoints.
	if _, _, err := sh.Apply(context.Background(), mustStatement(t, `delete /site/catgraph`)); err != nil {
		t.Fatal(err)
	}
	if got := walReg.CounterValue("wal.checkpoint.count"); got != ckpts+1 {
		t.Fatalf("wal.checkpoint.count = %d after the retry, want %d", got, ckpts+1)
	}
	if got := walReg.CounterValue("wal.checkpoint.errors"); got != 1 {
		t.Fatalf("wal.checkpoint.errors = %d after the retry, want 1", got)
	}
	closeShard(t, sh)
	requireServedIsRecovered(t, sh.Epoch(), dir)
}
