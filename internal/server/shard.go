// Package server is the concurrent, multi-tenant serving layer: a Registry
// hosts many independent databases (tenants) in one process, each served by
// its own shard — a maintenance engine (bare, or wrapped in the
// internal/wal durability layer) behind a single-writer apply loop that
// answers queries while updates stream in.
//
// The per-tenant concurrency model is single-writer / snapshot-isolated
// readers:
//
//   - All of a tenant's updates funnel through one bounded queue drained by
//     a single apply goroutine, which preserves the engine's single-threaded
//     mutation contract and rides the WAL's group commit when the backend
//     is a wal.DB. A full queue rejects immediately with ErrQueueFull
//     (surfaced as HTTP 429), which is the backpressure signal — and the
//     isolation boundary: a hot tenant saturates only its own queue and
//     writer, never another tenant's.
//
//   - The writer drains whatever is waiting, up to Config.MaxBatch
//     requests, answers the ones whose client already gave up, and hands
//     the rest to the backend as one run of statements. The run is folded
//     into the engine by pulopt.ApplyRun — the fold crash recovery and a
//     follower use too. A run of more than one statement is translated to
//     one combined delta when the planner can prove it equivalent to
//     sequential application (Section 5's aggregation/reduction with the
//     IO/LO/NLO conflict rules as the safety gate), amortizing FindTargets
//     and propagation over the run; otherwise it is applied one statement
//     at a time. Either way a durable backend journals every statement
//     before the engine mutates, the engine version advances by exactly
//     the statements that landed, and every request of the run is answered
//     with the one epoch published after it (read-your-writes holds).
//
//   - After every run that moved the engine the writer publishes a fresh
//     epoch: an immutable core.Snapshot (view rows plus an ID-preserving
//     image of the document that shares every untouched subtree with the
//     epoch before, stamped with the tenant name) swapped in with one
//     atomic pointer store. Any number of concurrent readers serve view and XPath
//     queries from the last published epoch without taking any lock
//     the writer can contend on. Readers therefore observe only states that
//     existed between whole statements — never a half-propagated view.
//
//   - Shutdown closes the queue, lets the writer drain every accepted
//     request, then syncs the backend (forcing the WAL group-commit buffer
//     to disk) before reporting done.
//
// The Registry adds the tenant lifecycle on top (create, drop, list — all
// crash-safe, see internal/wal's tenant layout) and the HTTP surface: the
// data plane under /v1/db/{name}/… and the admin plane under /v1/db.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
)

// ErrQueueFull is returned when a tenant's apply queue is at capacity;
// callers should back off and retry (HTTP maps it to 429 Too Many
// Requests).
var ErrQueueFull = errors.New("server: apply queue full")

// ErrShuttingDown is returned for updates submitted after the shard began
// draining (HTTP maps it to 503 Service Unavailable).
var ErrShuttingDown = errors.New("server: shutting down")

// ErrReadOnly is returned for updates submitted to a replica shard — a
// follower serves reads at its applied LSN and never accepts writes (HTTP
// maps it to 403 Forbidden, code read_only, pointing at the leader).
var ErrReadOnly = errors.New("server: read-only follower")

// Backend is what the serving layer needs from the engine side: the wal.DB
// durability wrapper satisfies it directly, and EngineBackend adapts a bare
// engine. All three methods are only ever called from the single writer
// goroutine (Engine also at construction time).
type Backend interface {
	// Engine exposes the underlying maintenance engine.
	Engine() *core.Engine
	// ApplyRun journals (when durable) and applies a run of statements
	// through pulopt.ApplyRun, appending one result per statement to
	// dst[:0]. A journaled statement runs to completion: deadlines are
	// checked before the call, at the queue.
	ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run
	// Sync forces buffered durability state (the WAL group-commit window)
	// to disk; a no-op for non-durable backends.
	Sync() error
}

// EngineBackend adapts a bare, non-durable engine to the Backend interface.
type EngineBackend struct{ Eng *core.Engine }

// Engine returns the wrapped engine.
func (b EngineBackend) Engine() *core.Engine { return b.Eng }

// ApplyRun folds the run into the engine; with no journal there is nothing
// to write ahead.
func (b EngineBackend) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	return pulopt.ApplyRun(b.Eng, stmts, dst)
}

// Sync is a no-op: a bare engine has no durability buffer.
func (EngineBackend) Sync() error { return nil }

// Config tunes one shard (one tenant's serving loop). The zero value
// selects the defaults noted on each field.
type Config struct {
	// QueueDepth bounds the tenant's apply queue; submissions beyond it
	// fail fast with ErrQueueFull. Default 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline applied to HTTP update
	// handlers (0 = 10s; negative = no deadline). A statement whose
	// deadline expires while still queued is abandoned by its client; the
	// writer then observes the cancelled context and skips it before
	// mutating anything.
	RequestTimeout time.Duration
	// MaxBatch caps how many waiting statements the writer drains into one
	// run (0 = default 32; 1 disables batching and restores strict
	// per-statement application). Batching only engages when more than one
	// request is already queued, so an idle tenant pays nothing.
	MaxBatch int
	// Metrics selects the registry for the server.* and snapshot.*
	// instruments (nil = obs.Default()).
	Metrics *obs.Metrics
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 32
	}
	return c.MaxBatch
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return 10 * time.Second
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return c.RequestTimeout
}

// Shard serves one tenant: snapshot-isolated reads over a single-writer
// apply loop. Create with NewShard (or through a Registry), stop with
// Close. A Shard has no HTTP surface of its own — the Registry routes
// /v1/db/{name}/… requests to it.
type Shard struct {
	name    string
	cfg     Config
	backend Backend
	eng     *core.Engine
	m       *serverMetrics
	tm      *tenantMetrics

	// closer releases the backend (closing the WAL for durable tenants)
	// after the writer has drained; nil for backends nobody owns.
	closer func() error

	// epoch is the last published snapshot; readers load it with one
	// atomic pointer read and never touch the live engine.
	epoch atomic.Pointer[core.Snapshot]

	// repl is the replication surface of a durable backend (wal.DB),
	// captured before any test wrapping; nil for in-memory tenants and for
	// replicas. The repl HTTP handlers stream from it.
	repl ReplSource

	// replica marks a read-only follower shard: no writer loop, epochs are
	// published externally (PublishReplica) by the replication tailer, and
	// every Apply rejects with ErrReadOnly. appliedLSN/leaderLast track the
	// follower's position for lag reporting.
	replica    bool
	appliedLSN atomic.Uint64
	leaderLast atomic.Uint64

	// qcache is the per-shard XPath result cache, invalidated by the
	// engine's applied-statement delta stream (core.Options.OnApplied); the
	// hook fires on the applying goroutine before publish, so readers at a
	// new epoch never see entries a write may have affected.
	qcache *queryCache

	queue chan *applyReq
	done  chan struct{} // closed when the writer loop has fully drained

	// reqs, stmts and results are the writer's buffers for one run, reused
	// from run to run.
	reqs    []*applyReq
	stmts   []*update.Statement
	results []pulopt.Result

	// mu guards closed against racing queue sends: Shutdown closes the
	// queue under the write lock, submissions send under the read lock.
	mu     sync.RWMutex
	closed bool
}

type applyReq struct {
	ctx  context.Context
	st   *update.Statement
	resp chan applyResult // buffered(1): the writer never blocks on it
}

type applyResult struct {
	rep     *core.Report
	version uint64 // epoch version at which the update's effects are readable
	err     error
}

// NewShard builds a tenant's shard over the backend, publishes the initial
// epoch, and starts the writer loop. The backend's engine must not be
// mutated by anyone else from this point on. closer, when non-nil, is
// called once after the writer drains (Close); use it to release a
// durable backend.
func NewShard(name string, b Backend, closer func() error, cfg Config) *Shard {
	s := &Shard{
		name:    name,
		cfg:     cfg,
		backend: b,
		eng:     b.Engine(),
		m:       newServerMetrics(cfg.Metrics),
		tm:      newTenantMetrics(cfg.Metrics, name),
		closer:  closer,
		queue:   make(chan *applyReq, cfg.queueDepth()),
		done:    make(chan struct{}),
	}
	s.initQueryCache()
	s.publish()
	go s.applyLoop()
	return s
}

// initQueryCache creates the result cache at the engine's current version
// and subscribes it to the applied-statement delta stream. Must run before
// the engine is shared with an applying goroutine.
func (s *Shard) initQueryCache() {
	s.qcache = newQueryCache(s.eng.Version())
	s.eng.SetOnApplied(func(sts []*update.Statement, version uint64) {
		if n := s.qcache.noteApplied(sts, version); n > 0 {
			s.m.rewriteCacheInval.Add(int64(n))
		}
	})
}

// NewReplicaShard builds a read-only follower shard around an engine the
// replication tailer owns: no queue, no writer loop, the initial epoch
// published from the engine's current (just-restored) state. From here on
// only the tailer may mutate the engine, publishing each batch's state via
// PublishReplica; readers serve from the last published epoch exactly as on
// a leader shard.
func NewReplicaShard(name string, eng *core.Engine, appliedLSN, leaderLast uint64, cfg Config) *Shard {
	s := &Shard{
		name:    name,
		cfg:     cfg,
		backend: EngineBackend{Eng: eng},
		eng:     eng,
		m:       newServerMetrics(cfg.Metrics),
		tm:      newTenantMetrics(cfg.Metrics, name),
		replica: true,
		done:    make(chan struct{}),
	}
	s.appliedLSN.Store(appliedLSN)
	s.leaderLast.Store(leaderLast)
	s.initQueryCache()
	s.publish()
	close(s.done) // no writer loop to drain
	return s
}

// PublishReplica publishes snap as the follower's new epoch and records the
// replication position it reflects. Tailer-goroutine only, mirroring the
// writer-only contract of publish.
func (s *Shard) PublishReplica(snap *core.Snapshot, appliedLSN, leaderLast uint64) {
	s.appliedLSN.Store(appliedLSN)
	s.leaderLast.Store(leaderLast)
	s.swapEpoch(snap)
}

// Replica reports whether this shard is a read-only follower.
func (s *Shard) Replica() bool { return s.replica }

// SetLeaderLast updates a replica shard's view of the leader's log tip
// without publishing a new epoch — a caught-up poll that shipped no frames
// still learns the tip, and lag reporting should reflect it. No-op on
// non-replica shards.
func (s *Shard) SetLeaderLast(last uint64) {
	if s.replica {
		s.leaderLast.Store(last)
	}
}

// LSNs returns the shard's replication position: the LSN whose effects the
// serving epoch contains, and the last LSN known to exist (the local log
// tip on a leader, the leader's advertised tip on a follower). Both are 0
// for in-memory tenants.
func (s *Shard) LSNs() (applied, last uint64) {
	if s.replica {
		return s.appliedLSN.Load(), s.leaderLast.Load()
	}
	if s.repl != nil {
		st := s.repl.ReplStatusNow()
		// The leader's serving epoch always reflects its own log tip: the
		// writer journals and applies synchronously before publishing.
		return st.LastLSN, st.LastLSN
	}
	return 0, 0
}

// Name returns the tenant this shard serves.
func (s *Shard) Name() string { return s.name }

// Epoch returns the last published snapshot. It never returns nil and the
// result is immutable — hold it as long as needed.
func (s *Shard) Epoch() *core.Snapshot { return s.epoch.Load() }

// QueueLen reports how many accepted updates are waiting for the writer.
func (s *Shard) QueueLen() int { return len(s.queue) }

// QueueCap reports the tenant's queue-depth limit.
func (s *Shard) QueueCap() int { return cap(s.queue) }

// Apply submits one statement to the writer loop and waits for it to be
// applied and its epoch published, honoring ctx. It returns the engine
// report and the epoch version at which the update's effects are visible
// to readers (a statement that rode a translated batch gets the batch's
// merged report). ErrQueueFull and ErrShuttingDown reject without queuing.
//
// Apply is at-most-once observable, not at-most-once: a ctx expiring while
// the request is queued abandons the WAIT, not necessarily the statement.
// If the ctx has ended when the writer drains the request, the statement
// is skipped with no effect; once the writer has taken it into a run, the
// statement is still applied, journaled, and published — the client just
// never sees the ack. Callers that time out
// must therefore treat the statement's fate as unknown; the
// server.abandoned_applied counter reports how often the applied-but-
// unacknowledged case actually happens.
func (s *Shard) Apply(ctx context.Context, st *update.Statement) (*core.Report, uint64, error) {
	wait, err := s.ApplyAsync(ctx, st)
	if err != nil {
		return nil, 0, err
	}
	return wait()
}

// ApplyAsync enqueues one statement and returns immediately with a wait
// function, under the same contract as Apply (which is ApplyAsync + wait).
// Split submission lets one goroutine enqueue several statements
// back-to-back — guaranteeing their FIFO order in the writer's queue, which
// a goroutine-per-Apply submission cannot — and collect the acks
// afterwards; the bursty stress tests use it to force deterministic
// multi-statement batches.
func (s *Shard) ApplyAsync(ctx context.Context, st *update.Statement) (func() (*core.Report, uint64, error), error) {
	if s.replica {
		return nil, ErrReadOnly
	}
	req := &applyReq{ctx: ctx, st: st, resp: make(chan applyResult, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.m.rejectedShutdown.Inc()
		return nil, ErrShuttingDown
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
		s.m.enqueued.Inc()
	default:
		s.mu.RUnlock()
		s.m.rejectedFull.Inc()
		s.tm.rejected.Inc()
		return nil, ErrQueueFull
	}
	return func() (*core.Report, uint64, error) {
		select {
		case res := <-req.resp:
			return res.rep, res.version, res.err
		case <-ctx.Done():
			// The writer will observe the cancelled context; if it had
			// already handed the statement to the backend, the statement
			// runs to completion and the writer still publishes it (see
			// Apply's at-most-once-observable note).
			return nil, 0, ctx.Err()
		}
	}, nil
}

// Shutdown stops accepting updates, waits for the writer to drain every
// accepted request and sync the backend, and returns nil on a clean drain
// or ctx.Err() if the deadline expires first (the writer keeps draining in
// the background either way). Safe to call more than once.
func (s *Shard) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.queue != nil {
			close(s.queue)
		}
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains the shard (Shutdown) and then releases its backend. The
// backend is released only after a complete drain — if ctx expires first,
// Close returns the error and leaves the backend open so the still-running
// writer never touches closed files.
func (s *Shard) Close(ctx context.Context) error {
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	if s.closer == nil {
		return nil
	}
	return s.closer()
}

// draining reports whether Shutdown has begun.
func (s *Shard) draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// applyLoop is the single writer: it drains the queue in FIFO order —
// adaptively batching when more than one request is waiting — and after the
// queue closes it syncs the backend so acknowledged updates are durable
// before done is signalled.
func (s *Shard) applyLoop() {
	for req := range s.queue {
		s.applyRun(s.drain(req))
	}
	if err := s.backend.Sync(); err != nil {
		s.m.syncErrors.Inc()
	}
	close(s.done)
}

// drain greedily collects whatever is already waiting behind first, up to
// the batch cap, without ever blocking: an idle tenant always runs one
// statement at a time.
func (s *Shard) drain(first *applyReq) []*applyReq {
	s.reqs = append(s.reqs[:0], first)
	for len(s.reqs) < s.cfg.maxBatch() {
		select {
		case req, ok := <-s.queue:
			if !ok {
				return s.reqs // queue closed: finish what was accepted
			}
			s.reqs = append(s.reqs, req)
		default:
			return s.reqs
		}
	}
	return s.reqs
}

// respond delivers one result, counting the applied-but-unacknowledged case
// (the client's ctx expired after the writer committed to the statement —
// its effects are published but nobody is reading the ack).
func (s *Shard) respond(req *applyReq, res applyResult) {
	if res.err == nil && req.ctx.Err() != nil {
		s.m.abandonedApplied.Inc()
	}
	req.resp <- res
}

// applyRun applies one drained run and publishes the resulting epoch. A
// request whose ctx has ended is answered here and left out of the run:
// this is the only place a deadline is checked. The rest go to the backend
// as one run, and every one of them is answered with the epoch published
// after it, so an acknowledged update is always readable
// (read-your-writes) and an unacknowledged one is at worst readable early,
// never lost.
func (s *Shard) applyRun(batch []*applyReq) {
	live, stmts := batch[:0], s.stmts[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			s.m.abandoned.Inc()
			s.respond(req, applyResult{err: err})
			continue
		}
		live = append(live, req)
		stmts = append(stmts, req.st)
	}
	s.stmts = stmts
	if len(live) == 0 {
		clear(batch)
		return
	}
	t0 := time.Now()
	run := s.safeApplyRun(stmts)
	d := time.Since(t0)
	s.m.applyLatency.Observe(d)
	if run.Translated {
		s.m.batches.Inc()
		s.m.batchedStatements.Add(int64(len(live)))
		s.m.batchLatency.Observe(d)
	} else if run.Reason != "" {
		s.m.batchFallbacks.Inc()
		s.m.reg.Counter("server.batch.fallback." + run.Reason).Inc()
	}
	if s.eng.Version() != s.Epoch().Version {
		s.publish()
	}
	version := s.Epoch().Version
	for i, req := range live {
		r := run.Results[i]
		if r.Err != nil {
			s.m.applyErrors.Inc()
		} else {
			s.m.applied.Inc()
			s.tm.applied.Inc()
		}
		s.respond(req, applyResult{rep: r.Report, version: version, err: r.Err})
	}
	// Hold no request, statement or report past its run.
	clear(batch)
	clear(stmts)
	clear(run.Results)
	s.results = run.Results
}

// safeApplyRun contains a panic escaping the engine's own per-view
// recovery (core.propagateAll repairs panicking views, but a panic
// elsewhere in the apply path would otherwise kill the writer goroutine
// and wedge every client of this tenant). The engine is repaired by
// recomputing all views, and every statement of the run is reported
// failed, although the log may hold some of them.
func (s *Shard) safeApplyRun(stmts []*update.Statement) (run pulopt.Run) {
	defer func() {
		if r := recover(); r != nil {
			s.m.applyPanics.Inc()
			s.eng.RepairAllViews()
			// A repair rebuilds state outside the delta stream (the document
			// may even have changed without a version bump): cached results
			// are no longer trustworthy at any version.
			s.qcache.dropAll(s.eng.Version())
			err := fmt.Errorf("server: apply panicked: %v", r)
			run = pulopt.Run{Results: s.results[:0]}
			for range stmts {
				run.Results = append(run.Results, pulopt.Result{Err: err})
			}
		}
	}()
	return s.backend.ApplyRun(stmts, s.results)
}

// publish captures the engine state, stamps it with the tenant name, and
// swaps it in as the new epoch. Writer-goroutine only (and once from
// NewShard, before the loop starts).
func (s *Shard) publish() {
	t0 := time.Now()
	s.swapEpoch(s.eng.Snapshot())
	s.m.publishLatency.Observe(time.Since(t0))
}

// swapEpoch stamps a captured snapshot with the tenant name, makes it the
// serving epoch, and counts what it holds and what it cost.
func (s *Shard) swapEpoch(snap *core.Snapshot) {
	snap.Tenant = s.name
	s.epoch.Store(snap)
	s.m.epochs.Inc()
	s.tm.epochs.Inc()
	var rows int64
	for i := range snap.Views {
		rows += int64(snap.Views[i].Rows.Len())
	}
	s.m.epochRows.Add(rows)
	s.m.epochViewsReused.Add(int64(snap.ViewsReused))
	s.m.epochDocNodes.Add(int64(snap.Doc().Size()))
	s.m.epochDocCopied.Add(int64(snap.Doc().CopiedNodes()))
}
