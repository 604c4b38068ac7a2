package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/store"
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
// wal.Open recovers from its directory.
func requireServedIsRecovered(t *testing.T, served *core.Snapshot, dir string) *core.Engine {
	t.Helper()
	db, err := wal.Open(dir, wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	requireServedIs(t, "recovered", served, db.Engine())
	return db.Engine()
}

// requireServedIs holds an epoch to an engine: the same document and Dewey
// IDs, the same version and the same rows in every view.
func requireServedIs(t *testing.T, what string, served *core.Snapshot, eng *core.Engine) {
	t.Helper()
	if got, want := served.Doc().String(), eng.Doc.String(); got != want {
		t.Fatalf("served document (%d bytes) differs from the %s one (%d bytes)", len(got), what, len(want))
	}
	if !bytes.Equal(served.Doc().EncodeOrds(), eng.Doc.EncodeOrds()) {
		t.Fatalf("served and %s Dewey-ID spaces differ", what)
	}
	if served.Version != eng.Version() {
		t.Fatalf("served version %d, %s %d", served.Version, what, eng.Version())
	}
	if len(served.Views) != len(eng.Views) {
		t.Fatalf("served %d views, %s %d", len(served.Views), what, len(eng.Views))
	}
	for i, mv := range eng.Views {
		vs := &served.Views[i]
		if vs.Name != mv.Name || !mv.View.EqualRows(vs.Rows.AppendTo(nil)) {
			t.Fatalf("view %s: served rows differ from the %s ones", mv.Name, what)
		}
	}
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

// failSecondUnit makes every translated batch of more than one unit stop
// after its first, through the fold's one seam: the state the planner's
// gates exist to rule out. It counts the batches it cut short.
func failSecondUnit(t *testing.T) *atomic.Int32 {
	t.Helper()
	var cut atomic.Int32
	pulopt.ApplyUnits = func(e *core.Engine, units []core.BatchPUL) (*core.Report, int, error) {
		if len(units) < 2 {
			return e.ApplyBatch(units)
		}
		rep, n, err := e.ApplyBatch(units[:1])
		if err == nil {
			cut.Add(1)
			err = errors.New("injected unit failure")
		}
		return rep, n, err
	}
	t.Cleanup(func() { pulopt.ApplyUnits = (*core.Engine).ApplyBatch })
	return &cut
}

// TestFailedUnitGoesOnPerStatement: when a translated batch's second unit
// fails, the fold goes on one statement at a time from the boundary the
// first unit left the engine at. Every request of the run is acknowledged,
// no view is repaired, and the last epoch is what wal.Open recovers from
// the directory and what a twin that applied each statement on its own
// holds.
func TestFailedUnitGoesOnPerStatement(t *testing.T) {
	cut := failSecondUnit(t)
	root := t.TempDir()
	m := obs.New()
	var pb *pausingBackend
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: m},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
		wrapBackend: func(_ string, b Backend) Backend {
			pb = &pausingBackend{Backend: b, entered: make(chan struct{}, 8)}
			return pb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown := sync.OnceValue(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return reg.Shutdown(ctx)
	})
	t.Cleanup(func() { _ = shutdown() })
	sh, err := reg.Create(DefaultTenant, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	views := viewPointers(pb.Engine())

	// A pilot holds the writer while the run queues behind it in order: an
	// insert run then a delete run, one translated batch of two units.
	srcs := []string{
		`insert <pilot/> into /site`,
		`insert <note>a</note> into /site/categories`,
		`insert <note>b</note> into /site/catgraph`,
		`delete /site/closed_auctions/closed_auction`,
	}
	codes := make(chan int, len(srcs))
	post := func(src string) {
		go func() {
			body := strings.NewReader(fmt.Sprintf(`{"statement": %q}`, src))
			resp, err := http.Post(ts.URL+"/v1/db/"+DefaultTenant+"/update", "application/json", body)
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	pb.mu.Lock()
	post(srcs[0])
	select {
	case <-pb.entered:
	case <-time.After(10 * time.Second):
		pb.mu.Unlock()
		t.Fatal("the writer never took the pilot")
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, src := range srcs[1:] {
		post(src)
		for sh.QueueLen() != i+1 {
			if time.Now().After(deadline) {
				pb.mu.Unlock()
				t.Fatalf("update %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pb.mu.Unlock()
	for range srcs {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("an update was answered %d, want 200", code)
		}
	}
	if cut.Load() != 1 || m.CounterValue("server.batch.count") != 1 {
		t.Fatalf("%d batches cut, %d translated: the seam must cut the run's one batch", cut.Load(), m.CounterValue("server.batch.count"))
	}
	requireViewsKept(t, pb.Engine(), views)

	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	served := sh.Epoch()
	requireServedIsRecovered(t, served, wal.TenantDir(root, DefaultTenant))
	twin := newTestEngine(t)
	for _, src := range srcs {
		if _, err := twin.ApplyStatement(mustStatement(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	requireServedIs(t, "twin's", served, twin)
}

// viewPointers lists the engine's views as they stand.
func viewPointers(eng *core.Engine) []*store.View {
	views := make([]*store.View, len(eng.Views))
	for i, mv := range eng.Views {
		views[i] = mv.View
	}
	return views
}

// requireViewsKept fails if a view was rebuilt since viewPointers listed
// them, or if a view is not what a fresh evaluation gives.
func requireViewsKept(t *testing.T, eng *core.Engine, views []*store.View) {
	t.Helper()
	for i, mv := range eng.Views {
		if mv.View != views[i] {
			t.Fatalf("view %s was recomputed", mv.Name)
		}
		if !mv.View.EqualRows(algebra.Materialize(eng.Doc, mv.Pattern)) {
			t.Fatalf("view %s diverges from a fresh evaluation", mv.Name)
		}
	}
}

// TestJournalCrashMidRunRepairsNothing: a crash inside the third append of
// a five-statement run leaves two of its statements in the log. Those two
// are applied and acknowledged at the published version, the other three
// fail with the crash, and no view is recomputed.
func TestJournalCrashMidRunRepairsNothing(t *testing.T) {
	ffs := wal.NewFailFS(wal.OSFS)
	db, err := wal.Create(t.TempDir(), []byte(xmark.GenerateSmall(11, 0)), wal.Options{Sync: wal.SyncAlways, FS: ffs, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, v := range testViewSpecs() {
		if _, err := db.AddView(v.Name, v.Pattern); err != nil {
			t.Fatal(err)
		}
	}
	views := viewPointers(db.Engine())
	m := obs.New()
	pb := &pausingBackend{Backend: db, entered: make(chan struct{}, 8)}
	s := NewShard("crash", pb, nil, Config{Metrics: m})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // the final sync fails on the crashed disk
	}()
	v0 := s.Epoch().Version

	// Under SyncAlways an append is a write and an fsync. The pilot
	// appends first; the crash fires in the write of the run's third.
	ffs.CrashAt = ffs.Ops() + 2 + 2*2
	waits := enqueueExactBatch(t, s, pb, nil,
		`insert <person id="pb1"><name>Batch One</name></person> into /site/people`,
		`insert <category id="cb1"><name>Batch Cat</name></category> into /site/categories`,
		`delete /site/catgraph`,
		`delete /site/closed_auctions/closed_auction`,
		`insert <item id="ib1"><name>Batch Item</name></item> into /site/regions/africa`,
	)
	if _, _, err := waits[0](); err != nil {
		t.Fatalf("pilot: %v", err)
	}
	published := v0 + 3
	for i, wait := range waits[1:] {
		rep, version, err := wait()
		switch {
		case i < 2 && (err != nil || rep == nil || version != published):
			t.Fatalf("stmt %d: rep=%v version=%d err=%v, want acked at %d", i, rep, version, err, published)
		case i >= 2 && !errors.Is(err, wal.ErrCrash):
			t.Fatalf("stmt %d: err = %v, want the crash", i, err)
		}
	}
	if got := s.Epoch().Version; got != published {
		t.Fatalf("published version %d, want %d", got, published)
	}
	requireViewsKept(t, db.Engine(), views)
	if got := m.CounterValue("server.apply.panics"); got != 0 {
		t.Fatalf("server.apply.panics = %d, want 0", got)
	}
}
