package wal

import "xivm/internal/obs"

// walMetrics bundles the durability layer's pre-resolved instruments.
//
// Counter names:
//
//	wal.append.count        records appended
//	wal.append.bytes        framed bytes appended (header + payload)
//	wal.fsync.count         fsyncs issued (log and checkpoint files)
//	wal.segment.created     log segments created
//	wal.segment.removed     log segments removed behind checkpoints
//	wal.checkpoint.count    checkpoints written
//	wal.checkpoint.bytes    bytes written into checkpoints
//	wal.checkpoint.errors   automatic checkpoints that failed after their
//	                        statement landed, counted when they fail
//	                        (retried after the next statement)
//	wal.recover.replayed    log records re-applied during recovery
//	                        (statements and view registrations)
//	wal.recover.skipped     log records skipped during recovery (unparseable
//	                        or statements the engine rejected — both replay
//	                        exactly as they failed originally)
//	wal.recover.truncated   torn-tail bytes truncated from log segments
//	wal.recover.badcheckpoints  checkpoints rejected during recovery
//	                            (hash mismatch, torn manifest, …)
//
// Histogram names: wal.fsync.ns (per-fsync latency).
type walMetrics struct {
	reg *obs.Metrics

	appendCount, appendBytes *obs.Counter
	fsyncCount               *obs.Counter
	segCreated, segRemoved   *obs.Counter
	ckptCount, ckptBytes     *obs.Counter
	ckptErrors               *obs.Counter
	recReplayed, recSkipped  *obs.Counter
	recTruncated             *obs.Counter
	recBadCheckpoints        *obs.Counter

	fsyncNS *obs.Histogram
}

func newWalMetrics(reg *obs.Metrics) *walMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &walMetrics{
		reg:               reg,
		appendCount:       reg.Counter("wal.append.count"),
		appendBytes:       reg.Counter("wal.append.bytes"),
		fsyncCount:        reg.Counter("wal.fsync.count"),
		segCreated:        reg.Counter("wal.segment.created"),
		segRemoved:        reg.Counter("wal.segment.removed"),
		ckptCount:         reg.Counter("wal.checkpoint.count"),
		ckptBytes:         reg.Counter("wal.checkpoint.bytes"),
		ckptErrors:        reg.Counter("wal.checkpoint.errors"),
		recReplayed:       reg.Counter("wal.recover.replayed"),
		recSkipped:        reg.Counter("wal.recover.skipped"),
		recTruncated:      reg.Counter("wal.recover.truncated"),
		recBadCheckpoints: reg.Counter("wal.recover.badcheckpoints"),
		fsyncNS:           reg.Histogram("wal.fsync.ns"),
	}
}
