package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// This file is the log-shipping surface of the WAL: a leader reads raw
// frames out of its own segment files to ship to followers, and a follower
// re-verifies and decodes them before replay. Frames travel exactly as they
// sit on disk — same layout, same CRC — and both ends read them with
// walkFrames, the walker recovery scans its own segments with: the
// follower's check is recovery's, applied to the network instead of the
// disk, with any fault an error where recovery cuts a torn tail.

// ErrLSNTruncated reports that the log no longer holds the requested
// record: checkpointing truncated the segments that carried it. The caller
// must fall back to snapshot-first catch-up from the newest checkpoint.
var ErrLSNTruncated = errors.New("wal: requested lsn truncated by checkpointing")

// Record is one decoded log record.
type Record struct {
	LSN  uint64
	Kind byte
	// Statement is the canonical statement text when Kind is
	// RecordStatement.
	Statement string
	// ViewName and ViewPattern are set when Kind is RecordView.
	ViewName    string
	ViewPattern string
}

// ParseRecord decodes one frame payload into a Record.
func ParseRecord(lsn uint64, payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: record %d has an empty payload", lsn)
	}
	switch payload[0] {
	case RecordStatement:
		return Record{LSN: lsn, Kind: RecordStatement, Statement: string(payload[1:])}, nil
	case RecordView:
		name, src, err := decodeViewRecord(payload)
		if err != nil {
			return Record{}, fmt.Errorf("wal: record %d: %w", lsn, err)
		}
		return Record{LSN: lsn, Kind: RecordView, ViewName: name, ViewPattern: src}, nil
	}
	return Record{}, fmt.Errorf("wal: record %d has unknown tag %q", lsn, payload[0])
}

// DecodeFrames validates and decodes a concatenation of wire frames whose
// first record must carry LSN from. Unlike the recovery scan — which cuts a
// torn tail and keeps the prefix — any fault walkFrames finds, or a payload
// ParseRecord refuses, is an error: a follower received these bytes over a
// network, and a damaged stream must be rejected and re-fetched, never
// partially applied.
func DecodeFrames(data []byte, from uint64) ([]Record, error) {
	var recs []Record
	if _, err := walkFrames(data, from, func(lsn uint64, _, payload []byte) error {
		rec, err := ParseRecord(lsn, payload)
		recs = append(recs, rec)
		return err
	}); err != nil {
		return nil, err
	}
	return recs, nil
}

// errBudget ends ReadSegmentFrames' walk at the first frame past its budget.
var errBudget = errors.New("wal: read budget reached")

// ReadSegmentFrames reads raw wire-ready frames with LSN >= from straight
// from the segment files in walDir, up to roughly maxBytes (at least one
// frame when any is available). It returns the concatenated frame bytes and
// the LSN the next read should start from.
//
// Unlike Log methods this is safe to call concurrently with the owning
// writer: segment files are append-only and every frame is CRC-framed, so a
// concurrent in-flight append at the tail simply fails validation and ends
// the scan — the follower picks it up on the next poll. A hole in the
// chain, or a from older than the oldest surviving segment, returns
// ErrLSNTruncated; callers must handle the caught-up case (from beyond the
// last record) before calling, because an empty directory is
// indistinguishable from a fully truncated one here.
func ReadSegmentFrames(fsys FS, walDir string, from uint64, maxBytes int) ([]byte, uint64, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	files, err := listSegments(fsys, walDir)
	if err != nil {
		return nil, 0, err
	}
	if len(files) == 0 || from < files[0].first {
		return nil, 0, ErrLSNTruncated
	}
	var out []byte
	next := from
	for _, f := range files {
		if f.first > next {
			// Hole in the chain before the record we need: the covering
			// segment was removed between the listing and now.
			if len(out) > 0 {
				return out, next, nil
			}
			return nil, 0, ErrLSNTruncated
		}
		data, err := fsys.ReadFile(filepath.Join(walDir, f.Name()))
		if err != nil {
			// Pruned between the listing and the read.
			if len(out) > 0 {
				return out, next, nil
			}
			return nil, 0, ErrLSNTruncated
		}
		// Skip frames below next, then copy whole frames until the budget.
		_, err = walkFrames(data, f.first, func(lsn uint64, frame, _ []byte) error {
			if lsn < next {
				return nil
			}
			if len(out) > 0 && len(out)+len(frame) > maxBytes {
				return errBudget
			}
			out = append(out, frame...)
			next = lsn + 1
			return nil
		})
		if err == errBudget || len(out) >= maxBytes {
			return out, next, nil
		}
	}
	return out, next, nil
}

// defaultPinTTL is how long a follower pin protects the log suffix without
// being refreshed when Options.PinTTL is unset. A follower that stalls
// longer loses its pin and falls back to snapshot-first catch-up.
const defaultPinTTL = 30 * time.Second

type followerPin struct {
	lsn     uint64
	expires time.Time
}

// ReplPin records (or refreshes) follower id's claim on records >= lsn.
// Safe to call from HTTP goroutines concurrently with the writer.
func (db *DB) ReplPin(id string, lsn uint64) {
	db.pinMu.Lock()
	db.pins[id] = followerPin{lsn: lsn, expires: time.Now().Add(db.opts.PinTTL)}
	db.pinMu.Unlock()
}

// pinFloor returns the smallest unexpired pinned LSN, pruning expired pins.
func (db *DB) pinFloor() (uint64, bool) {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	now := time.Now()
	floor, ok := uint64(0), false
	for id, p := range db.pins {
		if now.After(p.expires) {
			delete(db.pins, id)
			continue
		}
		if !ok || p.lsn < floor {
			floor, ok = p.lsn, true
		}
	}
	return floor, ok
}

// ReplFollowers returns the number of unexpired follower pins — the
// connected-follower gauge.
func (db *DB) ReplFollowers() int {
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	now := time.Now()
	for id, p := range db.pins {
		if now.After(p.expires) {
			delete(db.pins, id)
		}
	}
	return len(db.pins)
}

// ReplStatus is the leader's replication position.
type ReplStatus struct {
	// LastLSN is the last journaled record.
	LastLSN uint64
	// CheckpointLSN is the newest checkpoint — where snapshot-first
	// catch-up starts.
	CheckpointLSN uint64
	// Followers counts unexpired follower pins.
	Followers int
}

// ReplStatusNow reports the current position. Safe from HTTP goroutines.
func (db *DB) ReplStatusNow() ReplStatus {
	return ReplStatus{
		LastLSN:       db.log.LastLSN(),
		CheckpointLSN: db.lastCkpt.Load(),
		Followers:     db.ReplFollowers(),
	}
}

// ReplFrames pins follower id at from and reads up to maxBytes of raw
// frames starting there. A from beyond the tip returns no frames and
// next == from (the follower polls again); ErrLSNTruncated means the
// follower must re-snapshot. Safe from HTTP goroutines.
func (db *DB) ReplFrames(id string, from uint64, maxBytes int) ([]byte, uint64, error) {
	if from == 0 {
		from = 1
	}
	if id != "" {
		db.ReplPin(id, from)
	}
	if from > db.log.LastLSN() {
		return nil, from, nil
	}
	return ReadSegmentFrames(db.fs, db.walDir, from, maxBytes)
}

// ReplImageNow loads and verifies the newest checkpoint for shipping to a
// follower. It retries a few times because pruning can remove the
// checkpoint it is reading concurrently; with KeepCheckpoints >= 1 a fresh
// listing always has a newer one to fall back to. Safe from HTTP
// goroutines.
func (db *DB) ReplImageNow() (*Image, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		lsns, err := listCheckpoints(db.fs, db.dir)
		if err != nil {
			return nil, err
		}
		if len(lsns) == 0 {
			return nil, fmt.Errorf("wal: %s holds no checkpoint", db.dir)
		}
		img, err := loadImage(db.fs, db.dir, lsns[len(lsns)-1])
		if err == nil {
			return img, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
