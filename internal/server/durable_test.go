package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	if served.Version != before+1 || !strings.Contains(served.Doc().String(), `id="pj"`) {
		t.Fatalf("served version %d, want %d with the journaled insert", served.Version, before+1)
	}
}

// TestAutoCheckpointFailureAcksTheStatement: an automatic checkpoint that
// fails after its statement landed does not fail the statement. The
// statement is acknowledged, served and recovered; the failure is counted
// in wal.checkpoint.errors, and the next statement retries the checkpoint.
// A checkpoint is written off the writer, so the test waits for each one
// to end before it reads the counters.
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
	if version != sh.Epoch().Version || !strings.Contains(sh.Epoch().Doc().String(), `id="pc"`) {
		t.Fatal("the acknowledged insert is not served")
	}
	if got := waitCounter(t, walReg, "wal.checkpoint.errors", 1); got != 1 {
		t.Fatalf("wal.checkpoint.errors = %d, want 1", got)
	}
	ckpts := walReg.CounterValue("wal.checkpoint.count")

	// The record budget stays used up, so the next statement checkpoints.
	if _, _, err := sh.Apply(context.Background(), mustStatement(t, `delete /site/catgraph`)); err != nil {
		t.Fatal(err)
	}
	if got := waitCounter(t, walReg, "wal.checkpoint.count", ckpts+1); got != ckpts+1 {
		t.Fatalf("wal.checkpoint.count = %d after the retry, want %d", got, ckpts+1)
	}
	if got := walReg.CounterValue("wal.checkpoint.errors"); got != 1 {
		t.Fatalf("wal.checkpoint.errors = %d after the retry, want 1", got)
	}
	closeShard(t, sh)
	requireServedIsRecovered(t, sh.Epoch(), dir)
}

// TestEpochCountersIgnoreCheckpointCaptures: snapshot.doc.copied_nodes and
// snapshot.views.reused count each published epoch against the epoch it
// replaced. A checkpoint's capture takes an engine snapshot between two
// publications, so with a checkpoint after every statement ten inserts
// must read the same two counters as without one.
func TestEpochCountersIgnoreCheckpointCaptures(t *testing.T) {
	counters := func(every int) (copied, reused int64) {
		t.Helper()
		walReg, m := obs.New(), obs.New()
		db, err := wal.Create(t.TempDir(), []byte(xmark.GenerateSmall(1, 0)), wal.Options{Metrics: walReg, CheckpointEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range testViewSpecs() {
			if _, err := db.AddView(v.Name, v.Pattern); err != nil {
				t.Fatal(err)
			}
		}
		sh := NewShard(DefaultTenant, db, db.Close, Config{Metrics: m})
		for i := range 10 {
			st := mustStatement(t, fmt.Sprintf(`insert <person id="pe%d"><name>Epoch</name></person> into /site/people`, i))
			if _, _, err := sh.Apply(context.Background(), st); err != nil {
				t.Fatal(err)
			}
		}
		if every > 0 && walReg.CounterValue("wal.checkpoint.count") == 0 {
			t.Fatal("no checkpoint was taken")
		}
		closeShard(t, sh)
		return m.CounterValue("snapshot.doc.copied_nodes"), m.CounterValue("snapshot.views.reused")
	}
	copied, reused := counters(0)
	t.Logf("ten inserts: %d nodes copied, %d views reused", copied, reused)
	if copied == 0 || reused == 0 {
		t.Fatalf("without checkpoints: %d nodes copied, %d views reused; the inserts copy spines and leave views alone", copied, reused)
	}
	if c, r := counters(1); c != copied || r != reused {
		t.Fatalf("a checkpoint after every insert: %d nodes copied, %d views reused; without: %d and %d", c, r, copied, reused)
	}
}

// waitCounter waits up to ten seconds for the named counter to reach want
// and returns its last value.
func waitCounter(t *testing.T, reg *obs.Metrics, name string, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := reg.CounterValue(name)
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
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

// TestJournalCrashMidRunRepairsNothing fails the third append of a
// five-statement run two ways. A crash takes the run's one fsync with it:
// no statement of the run is acknowledged, all five fail with the crash,
// and nothing is published past the pilot. A failed write, a full disk's,
// leaves the fsync working: the two statements appended before it are
// synced, applied and acknowledged at the published version, and the
// other three fail with the write error. Either way no view is recomputed.
func TestJournalCrashMidRunRepairsNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash bool
		acked int
		want  error
	}{
		{"crash", true, 0, wal.ErrCrash},
		{"write error", false, 2, wal.ErrIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
				_ = s.Shutdown(ctx) // the final sync fails on the failed log
			}()
			v0 := s.Epoch().Version

			// Under SyncAlways the pilot, a run of one, is a write and an
			// fsync; the run after it is a write a statement and then one
			// fsync. The fault fires in the write of the run's third.
			if at := ffs.Ops() + 2 + 2; tc.crash {
				ffs.CrashAt = at
			} else {
				ffs.ErrAt = at
			}
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
			published := v0 + 1 + uint64(tc.acked)
			for i, wait := range waits[1:] {
				rep, version, err := wait()
				switch {
				case i < tc.acked && (err != nil || rep == nil || version != published):
					t.Fatalf("stmt %d: rep=%v version=%d err=%v, want acked at %d", i, rep, version, err, published)
				case i >= tc.acked && !errors.Is(err, tc.want):
					t.Fatalf("stmt %d: err = %v, want %v", i, err, tc.want)
				}
			}
			if got := s.Epoch().Version; got != published {
				t.Fatalf("published version %d, want %d", got, published)
			}
			requireViewsKept(t, db.Engine(), views)
			if got := m.CounterValue("server.apply.panics"); got != 0 {
				t.Fatalf("server.apply.panics = %d, want 0", got)
			}
		})
	}
}

// TestDataDirWithViewFilesServesItsBodies: a tenant root whose newest
// checkpoint is in the layout of the releases that stored views — a hash
// and a size per manifest view, and a <view>.xivm file for each — opens:
// restore reads no view file (these hold bytes no view could be decoded
// from), the views it evaluates equal fresh evaluations at the manifest's
// LSN and engine version, and the tenant serves the bodies it served
// before it closed.
func TestDataDirWithViewFilesServesItsBodies(t *testing.T) {
	root := t.TempDir()
	cfg := RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
	}
	reg, base, shutdown := openRegistry(t, cfg)
	sh, err := reg.Create(DefaultTenant, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	db := base + "/v1/db/" + DefaultTenant
	for _, src := range []string{
		`insert <person id="pv"><name>Vera</name></person> into /site/people`,
		`replace /site/people/person/name with <name>Renamed</name>`,
		`delete /site/people/person[@id="pv"]`,
		`insert <person id="pw"><name>Wu</name></person> into /site/people`,
	} {
		if resp, _ := postUpdate(t, db, src); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", src, resp.StatusCode)
		}
	}
	served := servedBodies(t, db, sh)
	_, last := sh.LSNs()
	shutdown()

	dir := wal.TenantDir(root, DefaultTenant)
	wdb, err := wal.Open(dir, wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := wdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	version := wdb.Engine().Version()
	if err := wdb.Close(); err != nil {
		t.Fatal(err)
	}
	man := giveViewFiles(t, dir)
	if man.LSN != last || man.EngineVersion != version {
		t.Fatalf("the checkpoint is at lsn %d version %d, the tenant was at %d and %d", man.LSN, man.EngineVersion, last, version)
	}

	re, err := wal.Open(dir, wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Replayed != 0 || re.LastLSN() != man.LSN || re.Engine().Version() != man.EngineVersion {
		t.Fatalf("opened at lsn %d version %d having replayed %d records, want the checkpoint's lsn %d and version %d",
			re.LastLSN(), re.Engine().Version(), st.Replayed, man.LSN, man.EngineVersion)
	}
	for _, mv := range re.Engine().Views {
		if !mv.View.EqualRows(algebra.Materialize(re.Engine().Doc, mv.Pattern)) {
			t.Fatalf("view %s diverges from a fresh evaluation", mv.Name)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	reg, base, _ = openRegistry(t, cfg)
	if sh, err = reg.Get(DefaultTenant); err != nil {
		t.Fatal(err)
	}
	for i, body := range servedBodies(t, base+"/v1/db/"+DefaultTenant, sh) {
		if !bytes.Equal(body, served[i]) {
			t.Fatalf("served body %d differs after the reopen:\n got %s\nwant %s", i, body, served[i])
		}
	}
}

// giveViewFiles rewrites the newest checkpoint in dir the way the releases
// that stored views wrote it: a <view>.xivm file beside doc.xml for each
// view the manifest names, and the file's hash and size in the view's
// manifest entry. The files hold no view image: nothing may read them.
func giveViewFiles(t *testing.T, dir string) *wal.Manifest {
	t.Helper()
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-????????????????"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint in %s (%v)", dir, err)
	}
	ckpt := ckpts[len(ckpts)-1]
	raw, err := os.ReadFile(filepath.Join(ckpt, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := wal.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	type viewWithFile struct {
		Name    string `json:"name"`
		Pattern string `json:"pattern"`
		Hash    string `json:"hash"`
		Bytes   int64  `json:"bytes"`
	}
	older := struct {
		*wal.Manifest
		Views []viewWithFile `json:"views"`
	}{Manifest: man}
	for _, v := range man.Views {
		file := []byte("XIVM1 not a view image: " + v.Name)
		if err := os.WriteFile(filepath.Join(ckpt, v.Name+".xivm"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		older.Views = append(older.Views, viewWithFile{v.Name, v.Pattern, wal.HashBytes(file), int64(len(file))})
	}
	data, err := json.MarshalIndent(older, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt, "MANIFEST"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return man
}
