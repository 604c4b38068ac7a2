// Package repl is the follower half of WAL-shipping replication: it tails a
// leader's per-tenant log stream (internal/server's /v1/db/{name}/repl/…
// endpoints) and maintains read-only replica shards that serve every read
// endpoint at the follower's applied LSN.
//
// One Follower replicates one tenant:
//
//   - Catch-up is snapshot-first: the tailer fetches the leader's newest
//     checkpoint image, re-verifies every byte of it (manifest decode,
//     document and ordinal-stream content hashes — wal.NewImage is the
//     verifier the leader's own recovery uses), restores an engine from it
//     (the views evaluated over the document, as at create), and attaches a
//     replica shard at the checkpoint's LSN.
//
//   - It then tails the stream: each poll fetches raw WAL frames from
//     applied+1, CRC-verifies and decodes them (wal.DecodeFrames rejects the
//     whole read on any torn or corrupt frame — network data is never
//     partially applied), folds the records into the engine with wal.Replay
//     — the function the leader's own crash recovery uses, and the fold
//     (pulopt.ApplyRun) its writer lands statements with, so a follower and
//     a restarted leader reach the same state from the same bytes — and
//     publishes one epoch per read. A statement the engine rejects is
//     skipped, as it was rejected where it was journaled; one whose fold
//     panics (wal.ReplayPanicError) stops the tailer and its replica
//     (server.Shard.Stop), which keeps serving its last epoch. So does an
//     image that verified but cannot be restored (RestoreError): the same
//     bytes fail the same way on every retry.
//
//   - Transport errors and images that fail their verification reconnect
//     with jittered exponential backoff and resume from the last-applied
//     LSN. A 410 snapshot_required answer (the leader truncated past our
//     position) re-runs snapshot-first catch-up on a fresh engine and
//     re-attaches the shard; the stale epoch keeps serving reads meanwhile.
//
// A Fleet runs one Follower per leader tenant, discovering creates and
// drops by polling the leader's admin plane.
package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"xivm/internal/client"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/server"
	"xivm/internal/wal"
)

// Options tunes followers. The zero value selects the defaults noted on
// each field.
type Options struct {
	// PollInterval is how long a caught-up tailer waits before asking the
	// leader for more frames (default 100ms).
	PollInterval time.Duration
	// MaxBytes caps one stream read (default 1MiB). The leader always ships
	// at least one frame regardless.
	MaxBytes int
	// Metrics selects the registry for the repl.follower.* instruments
	// (nil = obs.Default()).
	Metrics *obs.Metrics
}

func (o Options) pollInterval() time.Duration {
	if o.PollInterval <= 0 {
		return 100 * time.Millisecond
	}
	return o.PollInterval
}

func (o Options) maxBytes() int {
	if o.MaxBytes <= 0 {
		return 1 << 20
	}
	return o.MaxBytes
}

// minBackoff and maxBackoff bound the jittered exponential reconnect
// backoff.
const (
	minBackoff = 50 * time.Millisecond
	maxBackoff = 3 * time.Second
)

// gauge tracks a current value on top of a delta counter. Each follower
// mutates only from its own tailer goroutine, and distinct followers sharing
// one flat counter each track their own last-reported value, so the counter
// always reads as the SUM of the per-follower values (with one tenant,
// exactly that follower's value).
type gauge struct {
	c    *obs.Counter
	last int64
}

func (g *gauge) set(v uint64) {
	n := int64(v)
	g.c.Add(n - g.last)
	g.last = n
}

// followerMetrics are the follower-side instruments:
//
//	repl.follower.applied_lsn  Σ per-tenant applied LSN (gauge-via-deltas)
//	repl.follower.lag_lsn      Σ per-tenant (leader tip − applied) lag
//	repl.follower.records      log records replayed
//	repl.follower.batches      statement runs replayed as one translated batch
//	repl.follower.skipped      records skipped (mirroring recovery semantics)
//	repl.follower.resyncs      snapshot-first catch-ups (initial + after 410)
//	repl.follower.reconnects   transport errors that triggered backoff
type followerMetrics struct {
	applied    gauge
	lag        gauge
	records    *obs.Counter
	batches    *obs.Counter
	skipped    *obs.Counter
	resyncs    *obs.Counter
	reconnects *obs.Counter
}

func newFollowerMetrics(reg *obs.Metrics) *followerMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &followerMetrics{
		applied:    gauge{c: reg.Counter("repl.follower.applied_lsn")},
		lag:        gauge{c: reg.Counter("repl.follower.lag_lsn")},
		records:    reg.Counter("repl.follower.records"),
		batches:    reg.Counter("repl.follower.batches"),
		skipped:    reg.Counter("repl.follower.skipped"),
		resyncs:    reg.Counter("repl.follower.resyncs"),
		reconnects: reg.Counter("repl.follower.reconnects"),
	}
}

// Follower replicates one tenant from a leader into a follower registry.
// Create with NewFollower and drive with Run; all state is owned by the
// single tailer goroutine inside Run.
type Follower struct {
	name string
	id   string // follower identity for leader-side log pinning
	db   *client.DB
	reg  *server.Registry
	opts Options
	m    *followerMetrics

	eng        *core.Engine
	sh         *server.Shard
	applied    uint64
	leaderLast uint64
}

// NewFollower builds a tailer for one tenant. c must point at the leader
// (the registry's FollowerOf URL) and reg must be a follower registry.
func NewFollower(c *client.Client, reg *server.Registry, tenant string, opts Options) *Follower {
	return &Follower{
		name: tenant,
		id:   fmt.Sprintf("%s-%08x", tenant, rand.Uint32()),
		db:   c.DB(tenant),
		reg:  reg,
		opts: opts,
		m:    newFollowerMetrics(opts.Metrics),
	}
}

// RestoreError is what Run returns when the leader's checkpoint image
// verified but could not be restored into an engine. The image is a
// function of the leader's log, so every retry fails the same way: the
// tailer stops, and the follower lists its tenant stopped.
type RestoreError struct {
	Tenant string
	LSN    uint64 // the image's
	Err    error
}

func (e *RestoreError) Error() string {
	return fmt.Sprintf("repl: restoring the snapshot of %s at LSN %d: %v", e.Tenant, e.LSN, e.Err)
}

func (e *RestoreError) Unwrap() error { return e.Err }

// Run tails the leader until ctx is cancelled: snapshot-first catch-up,
// then the poll loop, re-syncing or backing off as classified errors
// dictate. It returns ctx.Err(), or the *wal.ReplayPanicError or
// *RestoreError that stopped the replica.
func (f *Follower) Run(ctx context.Context) error {
	backoff := minBackoff
	for ctx.Err() == nil {
		if f.eng == nil {
			if err := f.resync(ctx); err != nil {
				var restore *RestoreError
				switch {
				case ctx.Err() != nil:
					return ctx.Err()
				case errors.As(err, &restore):
					f.reg.StopReplica(f.name, err)
					return err
				}
				f.m.reconnects.Inc()
				f.sleepBackoff(ctx, &backoff)
				continue
			}
			backoff = minBackoff
		}
		err := f.pollOnce(ctx)
		var panicked *wal.ReplayPanicError
		switch {
		case err == nil:
			backoff = minBackoff
		case errors.As(err, &panicked):
			return err
		case ctx.Err() != nil:
		case isSnapshotRequired(err):
			// The leader truncated past our position: run snapshot-first
			// catch-up on a fresh engine. The current epoch keeps serving
			// reads until the new shard attaches.
			f.eng = nil
		default:
			f.m.reconnects.Inc()
			f.sleepBackoff(ctx, &backoff)
		}
	}
	return ctx.Err()
}

// resync is snapshot-first catch-up: fetch the leader's newest checkpoint
// image, verify every byte, restore an engine configured like every other
// engine of the follower registry, and (re-)attach the replica shard at the
// image's LSN.
func (f *Follower) resync(ctx context.Context) error {
	resp, err := f.db.ReplSnapshot(ctx)
	if err != nil {
		return err
	}
	img, err := wal.NewImage(resp.Manifest, resp.Doc, resp.Ords)
	if err != nil {
		return fmt.Errorf("repl: verifying snapshot for %s: %w", f.name, err)
	}
	eng, err := img.Restore(f.reg.EngineOptions()...)
	if err != nil {
		return &RestoreError{Tenant: f.name, LSN: img.Manifest.LSN, Err: err}
	}
	f.eng = eng
	f.applied = img.Manifest.LSN
	if f.leaderLast < f.applied {
		f.leaderLast = f.applied
	}
	sh, err := f.reg.NewReplica(f.name, eng, f.applied, f.leaderLast)
	if err != nil {
		f.eng = nil
		return err
	}
	f.sh = sh
	f.m.resyncs.Inc()
	f.m.applied.set(f.applied)
	f.m.lag.set(f.leaderLast - f.applied)
	return nil
}

// pollOnce is one tail step: fetch frames from applied+1, decode and
// re-verify them, replay, publish the new epoch. When caught up it naps for
// the poll interval instead.
func (f *Follower) pollOnce(ctx context.Context) error {
	from := f.applied + 1
	frames, next, last, err := f.db.ReplFrames(ctx, from, f.opts.maxBytes(), f.id)
	if err != nil {
		return err
	}
	if last > f.leaderLast {
		f.leaderLast = last
	}
	if len(frames) == 0 || next <= from {
		// Caught up: remember the tip for lag reporting and nap.
		f.sh.SetLeaderLast(f.leaderLast)
		f.m.lag.set(f.leaderLast - f.applied)
		return f.nap(ctx, f.opts.pollInterval())
	}
	recs, err := wal.DecodeFrames(frames, from)
	if err != nil {
		// Torn or corrupt network read: refetch from the same position.
		return fmt.Errorf("repl: decoding frames for %s at %d: %w", f.name, from, err)
	}
	res, err := wal.Replay(f.eng, recs)
	f.m.records.Add(int64(res.Applied))
	f.m.batches.Add(int64(res.Batches))
	f.m.skipped.Add(int64(res.Skipped))
	if err != nil {
		f.sh.Stop(fmt.Errorf("repl: replaying %s: %w", f.name, err))
		return err
	}
	f.applied = recs[len(recs)-1].LSN
	f.sh.PublishReplica(f.eng.Snapshot(), f.applied, f.leaderLast)
	f.m.applied.set(f.applied)
	f.m.lag.set(f.leaderLast - f.applied)
	return nil
}

// nap sleeps for d or until ctx is done.
func (f *Follower) nap(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepBackoff sleeps for the current backoff with ±50% jitter (so a fleet
// of followers does not reconnect in lockstep) and doubles it up to the cap.
func (f *Follower) sleepBackoff(ctx context.Context, backoff *time.Duration) {
	d := *backoff
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	_ = f.nap(ctx, d)
	*backoff *= 2
	if *backoff > maxBackoff {
		*backoff = maxBackoff
	}
}

// isSnapshotRequired reports whether err is the leader's typed 410: the
// requested LSN was truncated and only a snapshot can resume replication.
func isSnapshotRequired(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == server.CodeSnapshotRequired
}
