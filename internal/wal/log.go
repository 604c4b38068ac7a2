// Package wal is the durability subsystem: a segmented append-only
// write-ahead log of canonical update statements, atomic checkpoints of the
// document and the patterns of its managed views, and crash recovery that
// loads the newest valid checkpoint, evaluates each view over its document
// once, and replays the surviving log suffix (Replay), folding runs of
// consecutive statements through internal/pulopt's ApplyRun in chunks, as
// the writer folds a batch, so a translated chunk costs one propagation
// pass per unit.
//
// The paper's premise is that incrementally maintained views are cheap to
// keep; without this layer a process restart loses the document and every
// statement applied to it. With it, maintained state survives crashes: the
// DB wrapper journals each statement and then applies it (write-ahead: a
// journaled statement runs to completion), group-commits under a
// configurable fsync policy, and checkpoints rotate and truncate the log
// behind them.
//
// On-disk layout of a data directory:
//
//	<dir>/wal/<first-lsn>.wal      log segments, CRC-32C framed records
//	<dir>/checkpoint-<lsn>/        one checkpoint: MANIFEST, doc.xml,
//	                               doc.ords
//
// Record frames are self-describing and torn-tail safe: recovery scans
// frames in order and truncates the log at the first frame whose length,
// checksum or sequence number does not check out — a torn tail is cut,
// never replayed.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs on every append before acknowledging it — the
	// no-lost-updates policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval group-commits: appends are acknowledged immediately and
	// fsynced at most once per interval, bounding both the fsync rate and
	// the window of acknowledged-but-volatile records.
	SyncInterval
	// SyncNever leaves syncing to the operating system (and to explicit
	// Sync/Checkpoint calls).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "always"
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Frame layout (little endian):
//
//	[0:4)   payload length
//	[4:8)   CRC-32C (Castagnoli) over bytes [8 : 16+length)
//	[8:16)  LSN
//	[16:)   payload
const frameHeader = 16

// maxPayload bounds a single record; a length field beyond it marks the
// frame — and everything after it — as a torn tail.
const maxPayload = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segExt is the log segment suffix; segments are named by the LSN of their
// first record, zero-padded so lexical order is LSN order.
const segExt = ".wal"

func segName(firstLSN uint64) string { return fmt.Sprintf("%016x%s", firstLSN, segExt) }

func parseSegName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segExt)
	if !ok || len(base) != 16 {
		return 0, false
	}
	var lsn uint64
	if _, err := fmt.Sscanf(base, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// Log is a segmented append-only record log with monotonic LSNs. It is not
// safe for concurrent use; the DB wrapper serializes access the same way
// core.Engine serializes statements.
type Log struct {
	dir  string
	fs   FS
	m    *walMetrics
	opts Options

	segments []uint64 // each segment's first LSN, ascending; last is the active one
	cur      File     // open handle on the active segment, nil if none
	curSize  int64
	nextLSN  uint64
	dirty    bool // unsynced appends on cur
	lastSync time.Time
	buf      []byte // reused frame scratch

	// last mirrors nextLSN-1 for concurrent readers: the replication
	// status/stream handlers run on HTTP goroutines while the single writer
	// appends, and must not read nextLSN directly.
	last atomic.Uint64

	truncated int64 // torn-tail bytes cut during Open
	failed    error // sticky write-path error; the log refuses further appends
	syncErr   error // sticky fsync error: no later fsync is trusted
}

func (l *Log) segPath(first uint64) string { return filepath.Join(l.dir, segName(first)) }

// openLog opens (creating if needed) the log directory, validates every
// segment, truncates any torn tail, and positions the sequence after the
// last durable record. The torn-tail rule: within the segment chain, the
// log ends at the first frame walkFrames does not accept; that frame and
// everything after it (including later segments) is truncated and counted
// in wal.recover.truncated. Each segment is read once: each, if not nil, is
// handed every surviving record with LSN >= start as the scan accepts it,
// its payload valid only for the call.
//
// Of opts it reads Sync (default SyncAlways), SyncInterval (default 50ms),
// SegmentBytes (default 4 MiB), Metrics and FS. start seeds the sequence
// when the directory holds no segments: the checkpoint LSN + 1 on reopen,
// 1 on a fresh directory.
func openLog(dir string, opts Options, start uint64, each func(lsn uint64, payload []byte)) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	l := &Log{dir: dir, fs: opts.FS, m: newWalMetrics(opts.Metrics), opts: opts, lastSync: time.Now()}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := listSegments(l.fs, dir)
	if err != nil {
		return nil, err
	}
	// The chain starts wherever the oldest surviving segment says it does —
	// checkpoints truncate old segments, so the first segment's LSN is
	// normally behind the newest checkpoint, not at start. start only
	// seeds an empty directory.
	l.nextLSN = start
	if len(files) > 0 {
		l.nextLSN = files[0].first
	}
	for i, f := range files {
		if f.first != l.nextLSN {
			// A segment that does not continue the sequence starts the torn
			// region: cut it and everything after it. (A crash between
			// rotation and the first append of the new segment leaves an
			// empty segment named exactly nextLSN, which passes this check
			// and scans as zero frames.)
			return l.cutFrom(files, i, 0, fileSize(f))
		}
		data, err := l.fs.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		valid, fault := walkFrames(data, f.first, func(lsn uint64, _, payload []byte) error {
			l.nextLSN = lsn + 1
			if each != nil && lsn >= start {
				each(lsn, payload)
			}
			return nil
		})
		if fault != nil {
			// Torn tail inside this segment: truncate here, drop the rest.
			return l.cutFrom(files, i, int64(valid), int64(len(data)))
		}
		if len(data) == 0 && i < len(files)-1 {
			// An empty segment followed by more segments cannot happen in a
			// clean chain (rotation creates at most one trailing empty
			// segment); treat the suffix as torn.
			return l.cutFrom(files, i+1, 0, fileSize(files[i+1]))
		}
		l.segments = append(l.segments, f.first)
	}
	l.last.Store(l.nextLSN - 1)
	return l, nil
}

// cutFrom finalizes Open after finding the torn region: segment i, of size
// bytes, is truncated to keep bytes, segments after i are removed entirely,
// and the log opens positioned at the cut.
func (l *Log) cutFrom(files []segFile, i int, keep, size int64) (*Log, error) {
	path := filepath.Join(l.dir, files[i].Name())
	if keep == 0 {
		if err := l.fs.Remove(path); err != nil {
			return nil, err
		}
	} else {
		if err := l.fs.Truncate(path, keep); err != nil {
			return nil, err
		}
		l.segments = append(l.segments, files[i].first)
	}
	cut := size - keep
	for _, f := range files[i+1:] {
		cut += fileSize(f)
		if err := l.fs.Remove(filepath.Join(l.dir, f.Name())); err != nil {
			return nil, err
		}
		l.m.segRemoved.Inc()
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return nil, err
	}
	l.truncated = cut
	l.m.recTruncated.Add(cut)
	l.last.Store(l.nextLSN - 1)
	return l, nil
}

// segFile is a segment file as listed: the LSN of its first record and its
// directory entry.
type segFile struct {
	first uint64
	fs.DirEntry
}

// listSegments lists the segment files in dir in LSN order, leaving every
// other file alone.
func listSegments(fsys FS, dir string) ([]segFile, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []segFile
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			files = append(files, segFile{first, e})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].first < files[j].first })
	return files, nil
}

// fileSize is the size of a listed file as its directory entry reports it,
// 0 if it is gone: what a segment cut without being read adds to the torn
// bytes.
func fileSize(f segFile) int64 {
	info, err := f.Info()
	if err != nil {
		return 0
	}
	return info.Size()
}

// walkFrames is the one reader of the frame layout. It walks data as a
// frame sequence whose first frame must carry LSN first, accepting a frame
// whose length is within the bound and the data, whose CRC-32C verifies and
// whose LSN continues the sequence, and hands each one it accepts to f: its
// LSN, the whole frame and its payload. It returns the length of the
// accepted prefix and why the walk ended there: nil once every byte is
// accepted, the fault of the first frame it refused, or the error f
// returned, which refuses that frame. Recovery cuts the log at the prefix,
// the leader ships frames from it, and a follower refuses any fault.
func walkFrames(data []byte, first uint64, f func(lsn uint64, frame, payload []byte) error) (int, error) {
	pos, lsn := 0, first
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < frameHeader {
			return pos, fmt.Errorf("wal: frame %d ends mid-header", lsn)
		}
		length := int(binary.LittleEndian.Uint32(rest[0:4]))
		if length > maxPayload || frameHeader+length > len(rest) {
			return pos, fmt.Errorf("wal: frame %d declares %d payload bytes beyond the data", lsn, length)
		}
		frame := rest[:frameHeader+length]
		if crc32.Checksum(frame[8:], castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
			return pos, fmt.Errorf("wal: frame %d fails its checksum", lsn)
		}
		if got := binary.LittleEndian.Uint64(frame[8:16]); got != lsn {
			return pos, fmt.Errorf("wal: frame carries lsn %d, want %d", got, lsn)
		}
		if err := f(lsn, frame, frame[frameHeader:]); err != nil {
			return pos, err
		}
		pos += len(frame)
		lsn++
	}
	return pos, nil
}

// Truncated returns the torn-tail bytes cut when the log was opened.
func (l *Log) Truncated() int64 { return l.truncated }

// LastLSN returns the sequence number of the last appended record, or
// start-1 when the log is empty. Unlike every other Log method it is
// safe to call concurrently with the owning writer — replication status
// reads it from HTTP handler goroutines.
func (l *Log) LastLSN() uint64 { return l.last.Load() }

// Append frames payload, writes it to the active segment (rotating first
// if the segment is full), and syncs according to the policy. It returns
// the record's LSN. A failed write poisons the log: every later Append
// returns the same error, because the on-disk tail is no longer known to
// match the in-memory sequence.
func (l *Log) Append(payload []byte) (uint64, error) {
	lsn, err := l.append(payload)
	if err != nil {
		return 0, err
	}
	if err := l.policySync(); err != nil {
		return 0, err
	}
	return lsn, nil
}

func (l *Log) append(payload []byte) (uint64, error) {
	if l.failed != nil {
		return 0, l.failed
	}
	if int64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxPayload)
	}
	if l.cur == nil || l.curSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN
	l.buf = l.buf[:0]
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, lsn)
	l.buf = append(l.buf, payload...)
	binary.LittleEndian.PutUint32(l.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:8], crc32.Checksum(l.buf[8:], castagnoli))
	if _, err := l.cur.Write(l.buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return 0, l.failed
	}
	l.curSize += int64(len(l.buf))
	l.nextLSN++
	l.last.Store(l.nextLSN - 1)
	l.dirty = true
	l.m.appendCount.Inc()
	l.m.appendBytes.Add(int64(len(l.buf)))
	return lsn, nil
}

// rotate closes the active segment and opens a fresh one named after the
// next LSN.
func (l *Log) rotate() error {
	if l.cur != nil {
		if err := l.syncWritten(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			l.failed = err
			return err
		}
		l.cur = nil
	}
	f, err := l.fs.OpenFile(l.segPath(l.nextLSN), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		l.failed = err
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.failed = err
		return err
	}
	l.cur = f
	l.curSize = 0
	l.segments = append(l.segments, l.nextLSN)
	l.m.segCreated.Inc()
	return nil
}

// policySync syncs the frames written since the last sync, as the policy
// says. It syncs them even after a failed write has poisoned the log (see
// syncWritten), and then succeeds: a run makes durable the statements it
// appended before the one that failed, and acknowledges them.
func (l *Log) policySync() error {
	if l.opts.Sync == SyncAlways || l.opts.Sync == SyncInterval && time.Since(l.lastSync) >= l.opts.SyncInterval {
		if err := l.syncWritten(); err != nil {
			return err
		}
		l.lastSync = time.Now()
	}
	return nil
}

// Sync fsyncs the active segment if it has unsynced appends. On a log a
// failed write has poisoned it still syncs the frames before that write
// (see syncWritten), and then returns the failure.
func (l *Log) Sync() error {
	if err := l.syncWritten(); err != nil {
		return err
	}
	l.lastSync = time.Now()
	return l.failed
}

// syncWritten fsyncs the frames written to the active segment since the
// last sync, even on a log that a failed write has poisoned: the frames
// before the failed one are whole, and the torn bytes after them are cut
// when the log is opened. Once an fsync has failed it fails too, without
// trying again: a later fsync that succeeds says nothing of the pages the
// failed one may have dropped.
func (l *Log) syncWritten() error {
	if l.syncErr != nil {
		return l.syncErr
	}
	if !l.dirty || l.cur == nil {
		return nil
	}
	t0 := time.Now()
	if err := l.cur.Sync(); err != nil {
		l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		if l.failed == nil {
			l.failed = l.syncErr
		}
		return l.syncErr
	}
	l.m.fsyncCount.Inc()
	l.m.fsyncNS.Observe(time.Since(t0))
	l.dirty = false
	return nil
}

// RotateAndTruncate makes lsn the truncation horizon: the active segment is
// rotated so the next append starts a fresh segment, and every segment
// whose records all have LSN <= lsn is removed. Called after a checkpoint
// at lsn — the removed records' effects are in the checkpoint.
func (l *Log) RotateAndTruncate(lsn uint64) error {
	if l.failed != nil {
		return l.failed
	}
	if l.cur != nil {
		if err := l.syncWritten(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			l.failed = err
			return err
		}
		l.cur = nil
		l.curSize = 0
	}
	// A segment is dead if the next segment's first LSN (or the overall
	// next LSN, for the last segment) proves every record in it is <= lsn.
	kept := l.segments[:0]
	for i, seg := range l.segments {
		lastInSeg := l.nextLSN - 1
		if i+1 < len(l.segments) {
			lastInSeg = l.segments[i+1] - 1
		}
		if lastInSeg <= lsn {
			if err := l.fs.Remove(l.segPath(seg)); err != nil {
				return err
			}
			l.m.segRemoved.Inc()
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	return l.fs.SyncDir(l.dir)
}

// Reset discards every segment and restarts the sequence at startLSN. The
// DB uses it when the surviving log ends behind the newest checkpoint
// (every lost record's effect is already in the checkpoint): appending at
// startLSN over stale lower-LSN segments would corrupt the chain.
func (l *Log) Reset(startLSN uint64) error {
	if l.failed != nil {
		return l.failed
	}
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return err
		}
		l.cur = nil
		l.curSize = 0
	}
	for _, seg := range l.segments {
		if err := l.fs.Remove(l.segPath(seg)); err != nil {
			return err
		}
		l.m.segRemoved.Inc()
	}
	l.segments = nil
	l.nextLSN = startLSN
	l.last.Store(startLSN - 1)
	l.dirty = false
	return l.fs.SyncDir(l.dir)
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}
