package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"time"
)

// This file is the log-shipping surface of the WAL: a leader reads raw
// frames out of its own segment files to ship to followers, and a follower
// re-verifies and decodes them before replay. Frames travel exactly as they
// sit on disk — same layout, same CRC — so the follower's DecodeFrames pass
// is the identical torn/corrupt check recovery runs, applied to the network
// instead of the disk.

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
// torn tail and keeps the prefix — any violation here (short frame, bad
// length, bad CRC, LSN discontinuity, unknown tag) is an error: a follower
// received these bytes over a network, and a damaged stream must be
// rejected and re-fetched, never partially applied.
func DecodeFrames(data []byte, from uint64) ([]Record, error) {
	var recs []Record
	pos := 0
	lsn := from
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < frameHeader {
			return nil, fmt.Errorf("wal: stream ends mid-header at record %d", lsn)
		}
		length := int(binary.LittleEndian.Uint32(rest[0:4]))
		if length > maxPayload || frameHeader+length > len(rest) {
			return nil, fmt.Errorf("wal: stream frame %d declares %d payload bytes beyond the data", lsn, length)
		}
		if crc32.Checksum(rest[8:frameHeader+length], castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return nil, fmt.Errorf("wal: stream frame %d fails its checksum", lsn)
		}
		if got := binary.LittleEndian.Uint64(rest[8:16]); got != lsn {
			return nil, fmt.Errorf("wal: stream frame carries lsn %d, want %d", got, lsn)
		}
		rec, err := ParseRecord(lsn, rest[frameHeader:frameHeader+length])
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		pos += frameHeader + length
		lsn++
	}
	return recs, nil
}

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
	entries, err := fsys.ReadDir(walDir)
	if err != nil {
		return nil, 0, err
	}
	var firsts []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	if len(firsts) == 0 || from < firsts[0] {
		return nil, 0, ErrLSNTruncated
	}
	var out []byte
	next := from
	for _, first := range firsts {
		if first > next {
			// Hole in the chain before the record we need: the covering
			// segment was removed between the listing and now.
			if len(out) > 0 {
				return out, next, nil
			}
			return nil, 0, ErrLSNTruncated
		}
		data, err := fsys.ReadFile(filepath.Join(walDir, segName(first)))
		if err != nil {
			// Pruned between the listing and the read.
			if len(out) > 0 {
				return out, next, nil
			}
			return nil, 0, ErrLSNTruncated
		}
		valid, count := scanFrames(data, first)
		if count == 0 || first+count-1 < next {
			continue // empty trailing segment, or every record already shipped
		}
		// Skip frames below next, then copy whole frames until the budget.
		pos := int64(0)
		lsn := first
		for pos < valid {
			length := int64(binary.LittleEndian.Uint32(data[pos : pos+4]))
			end := pos + frameHeader + length
			if lsn >= next {
				if len(out) > 0 && len(out)+int(end-pos) > maxBytes {
					return out, next, nil
				}
				out = append(out, data[pos:end]...)
				next = lsn + 1
			}
			pos = end
			lsn++
		}
		if len(out) >= maxBytes {
			return out, next, nil
		}
	}
	return out, next, nil
}

// pinTTL is how long a follower pin protects the log suffix without being
// refreshed when Options.PinTTL is unset. A follower that stalls longer
// loses its pin and falls back to snapshot-first catch-up. Variable so tests
// can shrink it.
var pinTTL = 30 * time.Second

type followerPin struct {
	lsn     uint64
	expires time.Time
}

func (db *DB) pinTTLDur() time.Duration {
	if db.opts.PinTTL > 0 {
		return db.opts.PinTTL
	}
	return pinTTL
}

// ReplPin records (or refreshes) follower id's claim on records >= lsn.
// Safe to call from HTTP goroutines concurrently with the writer.
func (db *DB) ReplPin(id string, lsn uint64) {
	db.pinMu.Lock()
	db.pins[id] = followerPin{lsn: lsn, expires: time.Now().Add(db.pinTTLDur())}
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
