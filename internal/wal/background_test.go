package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/xmark"
)

// blockFS holds the Sync of every file written into a checkpoint's tmp
// directory, once armed, until release is closed; stuck is closed when the
// first one is held.
type blockFS struct {
	FS
	armed   atomic.Bool
	stuck   chan struct{}
	release chan struct{}
	once    sync.Once
}

func (f *blockFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !f.armed.Load() || !strings.Contains(name, ckptTmpExt) {
		return file, err
	}
	return blockFile{File: file, fs: f}, nil
}

type blockFile struct {
	File
	fs *blockFS
}

func (b blockFile) Sync() error {
	b.fs.once.Do(func() { close(b.fs.stuck) })
	<-b.fs.release
	return b.File.Sync()
}

// epochState is stateOf for a published epoch.
func epochState(snap *core.Snapshot) engState {
	s := engState{doc: snap.Doc().String(), ords: snap.Doc().EncodeOrds(), version: snap.Version, views: map[string][]algebra.Row{}}
	for i := range snap.Views {
		s.views[snap.Views[i].Name] = snap.Views[i].Rows.AppendTo(nil)
	}
	return s
}

// TestAutoCheckpointDoesNotBlockTheWriter: with an automatic checkpoint
// stuck in its first fsync, the writer journals, applies and acknowledges
// twice the record budget's worth of statements; the captures they trigger
// are deferred, and no log segment is cut. Released, exactly one
// checkpoint is published — the stuck one, at the LSN it was captured at —
// until the writer's next call settles it, truncates the log behind it and
// starts the deferred capture, which Close waits for. The directory
// recovers from that last capture to the epoch served last.
func TestAutoCheckpointDoesNotBlockTheWriter(t *testing.T) {
	const every = 3
	dir := t.TempDir()
	fsys := &blockFS{FS: OSFS, stuck: make(chan struct{}), release: make(chan struct{})}
	reg := obs.New()
	// A segment per record, and one checkpoint kept: the log is cut right
	// behind the newest checkpoint.
	db, err := Create(dir, []byte(xmark.GenerateSmall(3, 0)), Options{
		Sync: SyncAlways, SegmentBytes: 1, CheckpointEvery: every, KeepCheckpoints: 1, FS: fsys, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			close(fsys.release)
		}
		db.Close()
	}()
	fsys.armed.Store(true)
	n := 0
	apply := func() error {
		n++
		_, err := db.Apply(mustStatement(t, fmt.Sprintf(`insert <person id="pw%d"><name>W %d</name></person> into /site/people`, n, n)))
		return err
	}
	// applyWithin applies count statements on a goroutine of its own and
	// fails the test if they take ten seconds: a writer waiting for the
	// stuck checkpoint would never be done.
	applyWithin := func(count int) {
		t.Helper()
		acked := make(chan error, 1)
		go func() {
			for i := 0; i < count; i++ {
				if err := apply(); err != nil {
					acked <- err
					return
				}
			}
			acked <- nil
		}()
		select {
		case err := <-acked:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the writer waited for the checkpoint")
		}
	}
	applyWithin(every)
	captured := db.LastLSN()
	select {
	case <-fsys.stuck:
	case <-time.After(10 * time.Second):
		t.Fatal("no checkpoint started after the record budget was used up")
	}
	applyWithin(2 * every)
	if got := reg.CounterValue("wal.segment.removed"); got != 0 {
		t.Fatalf("%d log segments removed while the checkpoint covering them was not durable", got)
	}
	if lsns, _ := listCheckpoints(OSFS, dir); len(lsns) != 1 || lsns[0] != 0 {
		t.Fatalf("checkpoints %v published while the first automatic one was stuck", lsns)
	}
	served := epochState(db.Engine().Snapshot())
	last := db.LastLSN()

	close(fsys.release)
	released = true
	deadline := time.Now().Add(10 * time.Second)
	for db.lastCkpt.Load() != captured {
		if time.Now().After(deadline) {
			t.Fatal("the released checkpoint was not published")
		}
		time.Sleep(time.Millisecond)
	}
	if lsns, _ := listCheckpoints(OSFS, dir); len(lsns) != 2 || lsns[1] != captured {
		t.Fatalf("checkpoints %v after release, want the initial one and exactly the stuck one at LSN %d", lsns, captured)
	}
	if got := reg.CounterValue("wal.segment.removed"); got != 0 {
		t.Fatalf("%d log segments removed before the writer settled the checkpoint", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	lsns, err := listCheckpoints(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 1 || lsns[0] != last {
		t.Fatalf("checkpoints %v after Close, want the deferred capture's at LSN %d", lsns, last)
	}
	if got := reg.CounterValue("wal.checkpoint.count"); got != 3 {
		t.Fatalf("wal.checkpoint.count = %d, want the initial, the stuck and the deferred checkpoint", got)
	}
	if reg.CounterValue("wal.segment.removed") == 0 {
		t.Fatal("no log segment was truncated behind the published checkpoints")
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Stats().CheckpointLSN != last {
		t.Fatalf("recovered from checkpoint %d, want %d", re.Stats().CheckpointLSN, last)
	}
	requireSameState(t, "recovered", stateOf(t, re.Engine()), served)
}

// TestCrashDuringBackgroundCheckpoint runs the crash matrix's script with
// automatic checkpoints, which are written while the statements after
// their trigger keep arriving, and crashes it at every filesystem
// operation after Create — the journal's and the checkpoints', in whatever
// order the two goroutines reach them. Recovery always succeeds and yields
// a statement prefix at least as long as the acknowledged one, with every
// view equal to a fresh evaluation.
func TestCrashDuringBackgroundCheckpoint(t *testing.T) {
	const every = 2
	probe := NewFailFS(OSFS)
	acked, err := runCrashScript(t.TempDir(), probe, every)
	if err != nil || acked != len(crashStatements) {
		t.Fatalf("probe run: %d acked, %v", acked, err)
	}
	total := probe.Ops()
	created := NewFailFS(OSFS)
	if _, err := Create(t.TempDir(), []byte(xmark.GenerateSmall(11, 0)), Options{FS: created, Metrics: obs.New()}); err != nil {
		t.Fatal(err)
	}
	prefixes := prefixDocs(t)

	for at := created.Ops(); at < total; at++ {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = at
		acked, err := runCrashScript(dir, ffs, every)
		if err != nil && !errors.Is(err, ErrCrash) {
			t.Fatalf("crash at op %d: unexpected error %v", at, err)
		}
		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			t.Fatalf("crash at op %d: recovery failed after %d acknowledged statements: %v", at, acked, err)
		}
		got := re.Engine().Doc.String()
		k := -1
		for i := len(prefixes) - 1; i >= 0; i-- {
			if prefixes[i] == got {
				k = i
				break
			}
		}
		if k < acked {
			t.Fatalf("crash at op %d: recovered prefix %d but %d statements were acknowledged", at, k, acked)
		}
		for _, mv := range re.Engine().Views {
			if !mv.View.EqualRows(algebra.Materialize(re.Engine().Doc, mv.Pattern)) {
				t.Fatalf("crash at op %d: recovered view %s diverges from fresh evaluation", at, mv.Name)
			}
		}
		re.Close()
	}
}
