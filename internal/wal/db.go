package wal

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/xmltree"
)

// Record kinds: the tag byte leading each log payload. A record is one
// tagged payload inside a log frame; the frame supplies length, checksum
// and LSN.
const (
	// RecordStatement tags a canonical update statement (update.AppendFormat).
	RecordStatement = 's'
	// RecordView tags a view registration: name, NUL, pattern source.
	RecordView = 'v'
)

// Options tunes a DB. The zero value is SyncAlways, 4 MiB segments, manual
// checkpoints only.
type Options struct {
	// Sync is the fsync policy for statement appends.
	Sync SyncPolicy
	// SyncInterval is the group-commit window under SyncInterval
	// (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes is the log segment rotation size.
	SegmentBytes int64
	// CheckpointEvery, when positive, checkpoints automatically after that
	// many journaled records: the writer captures an epoch, and the files
	// are written off it (autoCheckpoint).
	CheckpointEvery int
	// KeepCheckpoints is how many published checkpoints survive pruning
	// (default 2: the newest plus one fallback).
	KeepCheckpoints int
	// PinTTL is how long a replication follower's stream read pins the log
	// suffix against checkpoint truncation without being refreshed
	// (0 = default 30s). A follower that stalls past it falls back to
	// snapshot-first catch-up via the typed snapshot_required error.
	PinTTL time.Duration
	// Metrics selects the wal.* registry (nil = obs.Default()).
	Metrics *obs.Metrics
	// FS selects the filesystem (nil = OSFS); the fault-injection tests
	// substitute a crashing one.
	FS FS
	// Engine is extra engine configuration (policy, metrics, tracer, …).
	Engine []core.Option
}

// DB couples a maintenance engine with the durability subsystem: every
// statement is journaled to the write-ahead log before the engine mutates
// anything, checkpoints capture the document plus every view, and Open
// recovers the exact acknowledged state after a crash.
//
// A DB is not safe for concurrent use, matching core.Engine's contract:
// its methods belong to the engine's writer. An automatic checkpoint is
// written off that writer, from an epoch (core.Snapshot) the writer
// captures; the writer goes on applying statements meanwhile.
type DB struct {
	dir    string
	walDir string
	fs     FS
	m      *walMetrics
	opts   Options

	eng     *core.Engine
	log     *Log
	sources map[string]string // view name -> pattern source, for checkpoint manifests

	sinceCkpt int
	stats     RecoveryStats

	// ckpt is the checkpoint in flight, nil when none is: at most one is.
	// next is one captured while ckpt was in flight, written after it.
	ckpt, next *ckptJob
	// ckpts holds the LSNs of the checkpoints published in dir, ascending.
	// Listed at Open or Create and kept since, it is what pruning and the
	// truncation horizon read, so that a checkpoint lists no directory.
	ckpts []uint64
	// jbuf is the journal's scratch: a statement is formatted into it and
	// framed from it.
	jbuf []byte

	// lastCkpt is the LSN of the newest checkpoint this process wrote or
	// recovered from. Atomic because the replication status handler reads
	// it from HTTP goroutines while the writer checkpoints.
	lastCkpt atomic.Uint64

	// pins maps follower IDs to the oldest LSN each active stream still
	// needs, so Checkpoint does not truncate log records out from under a
	// tailing follower. Guarded by pinMu; touched from HTTP handler
	// goroutines concurrently with the single writer.
	pinMu sync.Mutex
	pins  map[string]followerPin
}

func newDB(dir string, opts Options) *DB {
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = 2
	}
	if opts.PinTTL <= 0 {
		opts.PinTTL = defaultPinTTL
	}
	return &DB{
		dir:     dir,
		walDir:  filepath.Join(dir, "wal"),
		fs:      opts.FS,
		m:       newWalMetrics(opts.Metrics),
		opts:    opts,
		sources: map[string]string{},
		pins:    map[string]followerPin{},
	}
}

// maxJournalScratch is the largest scratch the journal keeps between
// statements: one huge statement does not pin its size for the DB's life.
const maxJournalScratch = 4 << 10

// journal appends the statement's canonical form to the log, before the
// engine touches the document or any view. It does not sync: ApplyRun
// syncs what it journaled, as the policy says, before it folds.
func (db *DB) journal(st *update.Statement) error {
	db.jbuf = update.AppendFormat(append(db.jbuf[:0], RecordStatement), st)
	_, err := db.log.append(db.jbuf)
	if cap(db.jbuf) > maxJournalScratch {
		db.jbuf = nil
	}
	if err != nil {
		return err
	}
	db.sinceCkpt++
	return nil
}

// Create initializes a fresh database directory around the given document,
// with no view: CreateWithViews with none. docXML is read in place, not
// copied, and must not change while Create runs.
func Create(dir string, docXML []byte, opts Options) (*DB, error) {
	return CreateWithViews(dir, bytesString(docXML), nil, opts)
}

// bytesString is b read as a string without a copy. The parser keeps no
// byte of its input — every value, label and key it builds is its own
// (xmltree.TestValuesAreNotSubstringsOfTheInput) — so the string lives no
// longer than the parse of it.
func bytesString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// ViewSource is a view to register at create: its name and its pattern's
// source, as AddView takes them.
type ViewSource struct {
	Name, Pattern string
}

// CreateWithViews initializes a fresh database directory around docXML
// with views registered, in one pass. The directory must not already hold
// a database. The document and every view are checked before anything
// touches the disk: a document the parser refuses is an error wrapping its
// *xmltree.SyntaxError, and a bad view is refused as AddView refuses it;
// either leaves no directory behind.
//
// Then checkpoint-0, the document alone, is written on a goroutine of its
// own from the document's epoch, while on the caller's the log is opened,
// the views' records are appended at LSN 1..N — each byte for byte the
// record AddView journals — and synced with one fsync under every sync
// policy, and the views are materialized (Engine.AddViews, which indexes
// their labels in one walk). Checkpoint-0 is published, the commit point,
// only once every view record is durable: the database exists with every
// view or not at all, and a create killed before the publish leaves a
// directory without a checkpoint, which is not a database.
func CreateWithViews(dir, docXML string, views []ViewSource, opts Options) (_ *DB, err error) {
	doc, err := xmltree.ParseString(docXML)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	named := make([]core.NamedPattern, len(views))
	for i, v := range views {
		if slices.ContainsFunc(views[:i], func(w ViewSource) bool { return w.Name == v.Name }) {
			return nil, fmt.Errorf("wal: view %q already exists", v.Name)
		}
		p, err := parseView(v.Name, v.Pattern)
		if err != nil {
			return nil, err
		}
		named[i] = core.NamedPattern{Name: v.Name, Pattern: p}
	}
	db := newDB(dir, opts)
	if err := db.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	existing, err := listCheckpoints(db.fs, dir)
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("wal: %s already holds a database (checkpoint %s)", dir, ckptName(existing[len(existing)-1]))
	}
	// A log without a checkpoint is a killed create's: not a database's.
	if err := db.fs.RemoveAll(db.walDir); err != nil {
		return nil, err
	}
	db.eng = core.New(doc, db.opts.Engine...)
	type staged struct {
		tmp   string
		total int64
		err   error
	}
	ckpt := make(chan staged, 1)
	go func(snap *core.Snapshot) {
		tmp, total, err := stageCheckpoint(db.fs, db.m, dir, snap, nil, 0)
		ckpt <- staged{tmp, total, err}
	}(db.eng.Snapshot())
	// A failed create leaves no checkpoint, so what it leaves is not a
	// database: the cleanup is best effort, and what it misses the next
	// create here or ScanTenantRoot removes.
	defer func() {
		if err != nil {
			if db.log != nil {
				_ = db.log.Close()
			}
			_ = db.fs.RemoveAll(db.walDir)
		}
	}()
	err = db.journalViews(views)
	if err == nil {
		err = db.eng.AddViews(named)
	}
	st := <-ckpt
	if err == nil {
		err = st.err
	}
	if err != nil {
		if st.err == nil {
			_ = db.fs.RemoveAll(st.tmp) // a tmp directory Open would sweep
		}
		return nil, err
	}
	if err = publishCheckpoint(db.fs, db.m, dir, st.tmp, 0, st.total); err != nil {
		return nil, err
	}
	db.ckpts = []uint64{0}
	return db, nil
}

// journalViews opens the log of a database being created and appends one
// record per view at LSN 1..len(views), synced with one fsync.
func (db *DB) journalViews(views []ViewSource) (err error) {
	if db.log, err = openLog(db.walDir, db.opts, 1, nil); err != nil {
		return err
	}
	for _, v := range views {
		if _, err := db.log.append(encodeViewRecord(v.Name, v.Pattern)); err != nil {
			return err
		}
		db.sources[v.Name] = v.Pattern
		db.sinceCkpt++
	}
	return db.log.Sync()
}

// Open recovers a database: newest valid checkpoint, torn-tail log scan,
// replay of the surviving suffix. The recovered engine state is exactly
// what the durable log prefix acknowledges. A missing dir is refused like
// an empty one, and Open does not create it. A log whose replay panics
// fails Open with a *ReplayPanicError.
func Open(dir string, opts Options) (_ *DB, err error) {
	db := newDB(dir, opts)
	lsns, err := listCheckpoints(db.fs, dir)
	if err != nil {
		return nil, err
	}
	if len(lsns) == 0 {
		return nil, fmt.Errorf("wal: %s holds no checkpoint (not a database, or created mid-crash)", dir)
	}
	// Newest checkpoint that passes every hash; corrupted ones are counted
	// and skipped in favor of older fallbacks.
	var img *Image
	for i := len(lsns) - 1; i >= 0 && img == nil; i-- {
		im, lerr := loadImage(db.fs, dir, lsns[i])
		if lerr != nil {
			db.m.recBadCheckpoints.Inc()
			db.stats.BadCheckpoints++
			continue
		}
		img = im
	}
	if img == nil {
		return nil, fmt.Errorf("wal: %s: every checkpoint is corrupt", dir)
	}
	if err := db.restore(img); err != nil {
		return nil, err
	}
	// The log is read once: its scan hands over the suffix to replay, and
	// the records go when Open returns.
	ckLSN := img.Manifest.LSN
	var recs []Record
	db.log, err = openLog(db.walDir, db.opts, ckLSN+1, func(lsn uint64, payload []byte) {
		rec, err := ParseRecord(lsn, payload)
		if err != nil {
			rec = Record{LSN: lsn}
		}
		recs = append(recs, rec)
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.log.Close()
		}
	}()
	db.stats.CheckpointLSN = ckLSN
	db.stats.TruncatedBytes = db.log.Truncated()
	if db.log.LastLSN() < ckLSN {
		// The surviving log ends behind the checkpoint (its tail was torn
		// away, or an old generation's segments linger): every record the
		// checkpoint covers is already applied, and appending over stale
		// lower-LSN segments would corrupt the chain. Start the log over.
		if err := db.log.Reset(ckLSN + 1); err != nil {
			return nil, err
		}
	}
	if err := db.replay(recs); err != nil {
		return nil, err
	}
	if err := sweepCheckpointTmp(db.fs, dir); err != nil {
		return nil, err
	}
	if db.ckpts, err = pruneCheckpoints(db.fs, dir, lsns, db.opts.KeepCheckpoints); err != nil {
		return nil, err
	}
	return db, nil
}

// replay re-applies the log suffix after the checkpoint through Replay —
// crash recovery is a follower of its own disk. A record ParseRecord
// rejected is a kindless Record, which Replay counts as skipped.
func (db *DB) replay(recs []Record) error {
	res, err := Replay(db.eng, recs)
	if err != nil {
		return err
	}
	for _, v := range res.Views {
		db.sources[v.ViewName] = v.ViewPattern
	}
	db.stats.Replayed, db.stats.Skipped = res.Applied, res.Skipped
	db.m.recReplayed.Add(int64(res.Applied))
	db.m.recSkipped.Add(int64(res.Skipped))
	return nil
}

// OpenOrCreate opens dir if it holds a database and creates one around
// docXML otherwise.
func OpenOrCreate(dir string, docXML []byte, opts Options) (*DB, error) {
	lsns, err := listCheckpoints(newDB(dir, opts).fs, dir)
	if err != nil {
		return nil, err
	}
	if len(lsns) == 0 {
		return Create(dir, docXML, opts)
	}
	return Open(dir, opts)
}

// restore points the DB at a fresh engine built from img.
func (db *DB) restore(img *Image) error {
	eng, err := img.Restore(db.opts.Engine...)
	if err != nil {
		return err
	}
	db.eng = eng
	db.sources = make(map[string]string, len(img.Manifest.Views))
	for _, v := range img.Manifest.Views {
		db.sources[v.Name] = v.Pattern
	}
	db.lastCkpt.Store(img.Manifest.LSN)
	return nil
}

// Engine exposes the recovered engine (views, document, metrics). Mutate
// it only through Apply/ApplyRun/AddView, or the log will not know.
func (db *DB) Engine() *core.Engine { return db.eng }

// Stats returns what recovery did when this DB was opened.
func (db *DB) Stats() RecoveryStats { return db.stats }

// LastLSN returns the sequence number of the last journaled record.
func (db *DB) LastLSN() uint64 { return db.log.LastLSN() }

// HasView reports whether a view with this name is already managed —
// recovered from the checkpoint or the log, or added this session.
func (db *DB) HasView(name string) bool { _, ok := db.sources[name]; return ok }

// Dir returns the data directory.
func (db *DB) Dir() string { return db.dir }

func validViewName(name string) error {
	if name == "" {
		return fmt.Errorf("wal: empty view name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("wal: view name %q: only letters, digits, '_' and '-' are allowed (it names a checkpoint file)", name)
		}
	}
	return nil
}

// parseView checks a view to register — its name, its pattern, and that
// the pattern stores something — and returns the parsed pattern.
func parseView(name, src string) (*pattern.Pattern, error) {
	if err := validViewName(name); err != nil {
		return nil, err
	}
	p, err := pattern.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(p.StoredIndexes()) == 0 {
		return nil, fmt.Errorf("wal: view %s stores nothing", name)
	}
	return p, nil
}

func encodeViewRecord(name, src string) []byte {
	payload := make([]byte, 0, 1+len(name)+1+len(src))
	payload = append(payload, RecordView)
	payload = append(payload, name...)
	payload = append(payload, 0)
	return append(payload, src...)
}

func decodeViewRecord(payload []byte) (name, src string, err error) {
	body := payload[1:]
	i := bytes.IndexByte(body, 0)
	if i < 0 {
		return "", "", fmt.Errorf("wal: view record without separator")
	}
	return string(body[:i]), string(body[i+1:]), nil
}

// AddView registers and materializes a view, journaling the registration
// first so recovery re-creates it at the same point in the statement
// sequence.
func (db *DB) AddView(name, patternSrc string) (*core.ManagedView, error) {
	if _, dup := db.sources[name]; dup {
		return nil, fmt.Errorf("wal: view %q already exists", name)
	}
	p, err := parseView(name, patternSrc)
	if err != nil {
		return nil, err
	}
	if _, err := db.log.Append(encodeViewRecord(name, patternSrc)); err != nil {
		return nil, err
	}
	db.sinceCkpt++
	mv, err := db.eng.AddView(name, p)
	if err != nil {
		return nil, err
	}
	db.sources[name] = patternSrc
	return mv, nil
}

// Apply journals one update statement and then applies it: ApplyRun of
// that statement alone.
func (db *DB) Apply(st *update.Statement) (*core.Report, error) {
	r := db.ApplyRun([]*update.Statement{st}, nil).Results[0]
	return r.Report, r.Err
}

// ApplyRun journals a run of statements in order and syncs them together,
// as the sync policy says — under SyncAlways the run costs one fsync,
// under SyncInterval it joins the group-commit window — and then folds
// exactly the statements the log holds into the engine with
// pulopt.ApplyRun, the fold replay uses: live state and recovered state
// do not diverge on whichever side of a failed append a statement fell.
// A statement that could not be journaled has no effect and fails with the
// journal error. The statements appended before it are synced all the
// same — a failed write poisons the log for appends, not for the sync of
// the frames before it — and folded once that sync succeeds. When the
// sync fails, the whole run fails with it and has no effect, as a single
// statement whose fsync fails does: no statement is acknowledged that the
// policy has not made durable. The results are appended to dst[:0].
func (db *DB) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	journaled := 0
	var jerr error
	for _, st := range stmts {
		if jerr = db.journal(st); jerr != nil {
			break
		}
		journaled++
	}
	if journaled > 0 {
		if err := db.log.policySync(); err != nil {
			jerr, journaled = err, 0
		}
	}
	run := pulopt.ApplyRun(db.eng, stmts[:journaled], dst)
	if jerr != nil {
		for range stmts[journaled:] {
			run.Results = append(run.Results, pulopt.Result{Err: jerr})
		}
		return run
	}
	db.autoCheckpoint()
	return run
}

// autoCheckpoint runs on the writer after a statement has landed. It takes
// the result of the checkpoint in flight if that one is done — it never
// waits for it — and captures one once Options.CheckpointEvery records have
// been journaled since the last capture. A capture that finds a checkpoint
// still in flight is deferred: it is written once that one is settled, and
// a later capture deferred in turn replaces it. Either way a checkpoint is
// of the state at its trigger, so checkpoints fall every CheckpointEvery
// records however long each takes to write. A checkpoint's failure is not
// the statement's: it is counted in wal.checkpoint.errors, and the record
// budget stays used up, so a later statement retries.
func (db *DB) autoCheckpoint() {
	if db.ckpt != nil {
		select {
		case <-db.ckpt.done:
			db.settle()
		default:
		}
	}
	if db.opts.CheckpointEvery <= 0 || db.sinceCkpt < db.opts.CheckpointEvery {
		return
	}
	if err := db.capture(true); err != nil {
		db.m.ckptErrors.Inc()
	}
}

// ckptJob is one checkpoint: captured by the writer, written by a goroutine
// of its own, settled by the writer again.
type ckptJob struct {
	lsn     uint64
	snap    *core.Snapshot
	sources map[string]string
	auto    bool // an automatic checkpoint counts its failures
	records int  // the record budget it used up, re-armed if it fails
	done    chan struct{}
	err     error // written before done is closed
}

// capture takes a checkpoint of the engine as it stands at the last
// journaled LSN and starts writing it, or defers it while another is in
// flight. The writer pays for a log sync, an epoch (Engine.Snapshot:
// O(views)) and a copy of the view sources; the files are written from the
// epoch by a goroutine of the checkpoint's own.
func (db *DB) capture(auto bool) error {
	if err := db.log.Sync(); err != nil {
		return err
	}
	lsn := db.log.LastLSN()
	if lsn == db.lastCkpt.Load() {
		return nil // nothing journaled since the last checkpoint
	}
	job := &ckptJob{lsn: lsn, snap: db.eng.Snapshot(), sources: maps.Clone(db.sources), auto: auto, records: db.sinceCkpt}
	db.sinceCkpt = 0
	if db.ckpt != nil {
		db.next = job
		return nil
	}
	db.start(job)
	return nil
}

// start writes job on a goroutine of its own.
func (db *DB) start(job *ckptJob) {
	db.ckpt, job.done = job, make(chan struct{})
	go func() {
		job.err = writeCheckpoint(db.fs, db.m, db.dir, job.snap, job.sources, job.lsn)
		job.snap, job.sources = nil, nil
		if job.err == nil {
			db.lastCkpt.Store(job.lsn)
		}
		close(job.done)
		// Counted once the result is out: whoever sees the count can rely on
		// the writer's next statement finding the checkpoint done.
		if job.err != nil && job.auto {
			db.m.ckptErrors.Inc()
		}
	}()
}

// settle waits for the checkpoint in flight, if any, takes its result on
// the writer, which owns the log, and starts the deferred one. A published
// checkpoint is recorded, the ones beyond Options.KeepCheckpoints are
// pruned, and the log is truncated behind the oldest kept — so truncation
// always waits until the checkpoint that covers it is durable. A failed
// one re-arms the record budget, unless a deferred one supersedes it.
func (db *DB) settle() error {
	job := db.ckpt
	if job == nil {
		return nil
	}
	<-job.done
	db.ckpt = nil
	err := job.err
	if err != nil {
		if db.next == nil {
			db.sinceCkpt += job.records
		}
	} else if err = db.truncate(job.lsn); err != nil && job.auto {
		db.m.ckptErrors.Inc()
	}
	if next := db.next; next != nil {
		db.next = nil
		db.start(next)
	}
	return err
}

// truncate records the checkpoint published at lsn, prunes, and rotates the
// log, removing the segments every kept checkpoint covers.
func (db *DB) truncate(lsn uint64) error {
	if i, found := slices.BinarySearch(db.ckpts, lsn); !found {
		db.ckpts = slices.Insert(db.ckpts, i, lsn)
	}
	var err error
	if db.ckpts, err = pruneCheckpoints(db.fs, db.dir, db.ckpts, db.opts.KeepCheckpoints); err != nil {
		return err
	}
	// Truncate behind the OLDEST surviving checkpoint, not the one just
	// written: if the newest turns out corrupt at recovery, the fallback
	// checkpoint still needs every record after its own LSN to reach the
	// tip.
	horizon := lsn
	if len(db.ckpts) > 0 && db.ckpts[0] < horizon {
		horizon = db.ckpts[0]
	}
	// An active follower stream pins the log suffix it is still reading:
	// truncating past a pinned LSN would turn an in-flight tail into a
	// mid-stream hole. Expired pins are dropped — a follower that stalls
	// past the TTL falls back to snapshot-first catch-up instead of
	// holding segments forever.
	if floor, ok := db.pinFloor(); ok && floor <= horizon {
		if floor == 0 {
			return nil
		}
		horizon = floor - 1
	}
	return db.log.RotateAndTruncate(horizon)
}

// Sync forces the group-commit buffer to disk — the SyncInterval/SyncNever
// caller's explicit durability point.
func (db *DB) Sync() error { return db.log.Sync() }

// Checkpoint captures the engine (document plus every view) at the current
// LSN and returns once the checkpoint is published, old ones beyond
// Options.KeepCheckpoints pruned and the log truncated behind them: the
// automatic path, waited for. Checkpoints in flight or deferred are
// settled first; an automatic one's failure is counted there, not returned.
func (db *DB) Checkpoint() error {
	db.drain()
	if err := db.capture(false); err != nil {
		return err
	}
	return db.settle()
}

// drain settles the checkpoint in flight and the deferred one.
func (db *DB) drain() {
	for db.ckpt != nil {
		db.settle()
	}
}

// Close settles the checkpoints in flight and deferred, then syncs and
// closes the log. The checkpoint state on disk is left as is — Open
// replays the tail.
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	db.drain()
	return db.log.Close()
}
