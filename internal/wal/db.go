package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

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
	// RecordStatement tags a canonical update statement (update.Format).
	RecordStatement = 's'
	// RecordView tags a view registration: name, NUL, pattern source.
	RecordView = 'v'
)

// Options tunes a DB. The zero value is SyncAlways, 4 MiB segments, manual
// checkpoints only.
type Options struct {
	// Sync is the fsync policy for statement appends.
	Sync SyncPolicy
	// SyncInterval is the group-commit window under SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes is the log segment rotation size.
	SegmentBytes int64
	// CheckpointEvery, when positive, checkpoints automatically after that
	// many journaled records.
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
// A DB is not safe for concurrent use, matching core.Engine's contract.
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

func (db *DB) logOptions(start uint64) LogOptions {
	return LogOptions{
		Policy:       db.opts.Sync,
		Interval:     db.opts.SyncInterval,
		SegmentBytes: db.opts.SegmentBytes,
		StartLSN:     start,
		Metrics:      db.opts.Metrics,
		FS:           db.fs,
	}
}

// journal appends the statement's canonical form to the log (synced per
// policy) before the engine touches the document or any view.
func (db *DB) journal(st *update.Statement) error {
	payload := append([]byte{RecordStatement}, update.Format(st)...)
	if _, err := db.log.Append(payload); err != nil {
		return err
	}
	db.sinceCkpt++
	return nil
}

// Create initializes a fresh database directory around the given document:
// it writes the initial checkpoint (LSN 0) and opens an empty log. The
// directory must not already hold a database. The document is parsed
// before anything touches the disk: one the parser refuses is an error
// wrapping its *xmltree.SyntaxError, and leaves no directory behind.
func Create(dir string, docXML []byte, opts Options) (*DB, error) {
	doc, err := xmltree.ParseString(string(docXML))
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
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
	db.eng = core.New(doc, db.opts.Engine...)
	if err := writeCheckpoint(db.fs, db.m, dir, db.eng, db.sources, 0); err != nil {
		return nil, err
	}
	db.log, err = OpenLog(db.walDir, db.logOptions(1))
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Open recovers a database: newest valid checkpoint, torn-tail log scan,
// replay of the surviving suffix. The recovered engine state is exactly
// what the durable log prefix acknowledges. A missing dir is refused like
// an empty one, and Open does not create it.
func Open(dir string, opts Options) (*DB, error) {
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
	ckLSN := img.Manifest.LSN
	db.log, err = OpenLog(db.walDir, db.logOptions(ckLSN+1))
	if err != nil {
		return nil, err
	}
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
	if err := db.replay(ckLSN); err != nil {
		return nil, err
	}
	if err := pruneCheckpoints(db.fs, dir, db.opts.KeepCheckpoints); err != nil {
		return nil, err
	}
	return db, nil
}

// replay re-applies the log suffix after the checkpoint's LSN through
// Replay — crash recovery is a follower of its own disk. A record
// ParseRecord rejects becomes a kindless Record, which Replay counts as
// skipped.
func (db *DB) replay(ckLSN uint64) error {
	var recs []Record
	if err := db.log.Replay(ckLSN+1, func(lsn uint64, payload []byte) error {
		rec, err := ParseRecord(lsn, payload)
		if err != nil {
			rec = Record{LSN: lsn}
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return err
	}
	res := Replay(db.eng, recs)
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
	if err := validViewName(name); err != nil {
		return nil, err
	}
	if _, dup := db.sources[name]; dup {
		return nil, fmt.Errorf("wal: view %q already exists", name)
	}
	p, err := pattern.Parse(patternSrc)
	if err != nil {
		return nil, err
	}
	if len(p.StoredIndexes()) == 0 {
		return nil, fmt.Errorf("wal: view %s stores nothing", name)
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

// Apply journals one update statement and then applies it, so a statement
// the log holds is one the engine applied; a statement the engine rejects
// fails the same way on replay. It then auto-checkpoints if the configured
// record budget is used up.
func (db *DB) Apply(st *update.Statement) (*core.Report, error) {
	if err := db.journal(st); err != nil {
		return nil, err
	}
	rep, err := db.eng.ApplyStatement(st)
	if err != nil {
		return rep, err
	}
	db.autoCheckpoint()
	return rep, nil
}

// ApplyRun journals a run of statements in order, riding the group-commit
// window, and then folds exactly the statements the log holds into the
// engine with pulopt.ApplyRun, the fold replay uses: live state and
// recovered state never diverge, whichever side of a journal failure a
// statement fell on. A statement that could not be journaled has no effect
// and fails with the journal error. The results are appended to dst[:0].
func (db *DB) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	journaled := 0
	var jerr error
	for _, st := range stmts {
		if jerr = db.journal(st); jerr != nil {
			break
		}
		journaled++
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

// autoCheckpoint checkpoints once Options.CheckpointEvery records have been
// journaled since the last checkpoint. It runs after a statement has
// landed, so its failure is not the statement's: it is counted in
// wal.checkpoint.errors, and the record budget stays used up so the next
// statement retries.
func (db *DB) autoCheckpoint() {
	if db.opts.CheckpointEvery <= 0 || db.sinceCkpt < db.opts.CheckpointEvery {
		return
	}
	if err := db.Checkpoint(); err != nil {
		db.m.ckptErrors.Inc()
	}
}

// Sync forces the group-commit buffer to disk — the SyncInterval/SyncNever
// caller's explicit durability point.
func (db *DB) Sync() error { return db.log.Sync() }

// Checkpoint captures the engine (document plus every view) at the current
// LSN, then rotates the log and truncates the segments the checkpoint
// covers. Old checkpoints beyond Options.KeepCheckpoints are pruned.
func (db *DB) Checkpoint() error {
	if err := db.log.Sync(); err != nil {
		return err
	}
	lsn := db.log.LastLSN()
	if lsn == db.lastCkpt.Load() {
		return nil // nothing journaled since the last checkpoint
	}
	// A same-named directory can only be an invalid leftover: a valid one
	// would have been chosen at Open, making lastCkptLSN == lsn above.
	if err := db.fs.RemoveAll(filepath.Join(db.dir, ckptName(lsn))); err != nil {
		return err
	}
	if err := writeCheckpoint(db.fs, db.m, db.dir, db.eng, db.sources, lsn); err != nil {
		return err
	}
	db.lastCkpt.Store(lsn)
	db.sinceCkpt = 0
	if err := pruneCheckpoints(db.fs, db.dir, db.opts.KeepCheckpoints); err != nil {
		return err
	}
	// Truncate behind the OLDEST surviving checkpoint, not the one just
	// written: if the newest turns out corrupt at recovery, the fallback
	// checkpoint still needs every record after its own LSN to reach the
	// tip.
	kept, err := listCheckpoints(db.fs, db.dir)
	if err != nil {
		return err
	}
	horizon := lsn
	if len(kept) > 0 && kept[0] < horizon {
		horizon = kept[0]
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

// Close syncs and closes the log. The checkpoint state on disk is left as
// is — Open replays the tail.
func (db *DB) Close() error {
	if db.log == nil {
		return nil
	}
	return db.log.Close()
}
