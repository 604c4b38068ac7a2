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
//     mutation contract. When the backend is a wal.DB every statement of a
//     run is journaled and then the run is synced under the WAL's sync
//     policy: under SyncAlways a run of k statements costs one fsync, which
//     every statement of it waits for before it is acknowledged, and
//     SyncInterval's group commit shares one among runs.
//     A full queue rejects immediately with ErrQueueFull
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
//   - A panic that escapes the backend stops the tenant (Shard.Stop): the
//     writer publishes nothing more and answers the run and every later
//     write with ErrTenantStopped, while readers keep the last epoch.
//     Nothing is repaired: a statement that panicked panics again when the
//     log replays it (wal.ReplayPanicError), so what landed is what the
//     next open replays.
//
//   - Shutdown closes the queue, lets the writer drain every accepted
//     request, then syncs the backend (forcing the WAL group-commit buffer
//     to disk) before reporting done.
//
// The Registry adds the tenant lifecycle on top (create, drop, list — all
// crash-safe, see internal/wal's tenant layout) and the HTTP surface: the
// data plane under /v1/db/{name}/… and the admin plane under /v1/db. A
// tenant it cannot open at start stays stopped by name; the others serve.
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
	"xivm/internal/xmltree"
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

// ErrTenantStopped, wrapped with its cause, refuses the writes of a tenant
// a panic stopped and every request to one the registry could not open
// (HTTP maps it to 503 Service Unavailable, code tenant_stopped).
var ErrTenantStopped = errors.New("server: tenant stopped")

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
	// RequestTimeout is the deadline of every update submitted to the
	// shard, counted from its submission (0 = 10s; negative = no
	// deadline); over HTTP an expired one is answered 504 timeout. A
	// statement whose deadline passes while it is still queued is
	// abandoned by its client; the writer then finds the deadline stamped
	// on the request past and skips it before mutating anything.
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

	// stopped is the error every write answers once the tenant has stopped
	// (Stop); nil while it runs.
	stopped atomic.Pointer[error]

	// repl is the replication surface of a durable backend (wal.DB),
	// captured before any test wrapping; nil for in-memory tenants and for
	// replicas. The repl HTTP handlers stream from it.
	repl ReplSource

	// replica marks a read-only follower shard: no writer loop, epochs are
	// published externally (PublishReplica) by the replication tailer, and
	// every Apply rejects with ErrReadOnly. appliedLSN/leaderLast track the
	// follower's position for lag reporting.
	// On a leader appliedLSN is the log tip the last run the writer
	// finished left, which the serving epoch covers: a run a panic stopped
	// is journaled but not served, so it leaves appliedLSN behind the tip.
	replica    bool
	appliedLSN atomic.Uint64
	leaderLast atomic.Uint64

	// qcache is the per-shard XPath result cache. An entry serves only the
	// epoch version it was computed at; swapEpoch empties it when it
	// publishes a newer version.
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

// applyReq is one submitted statement. Requests are pooled with their
// answer channel and their waiter's timer: one goes back to the pool only
// after its waiter has received the answer, so the writer, whose send is
// its last touch of a request, never answers a recycled one; a request
// whose waiter gave up is left to the collector.
type applyReq struct {
	ctx context.Context
	// deadline is when the submitter stops waiting (zero: never); the
	// writer skips a request whose deadline or ctx has passed.
	deadline time.Time
	st       *update.Statement
	resp     chan applyResult // buffered(1): the writer never blocks on it
	timer    *time.Timer      // the waiter's, stopped and drained in the pool
}

var applyReqPool = sync.Pool{New: func() any { return &applyReq{resp: make(chan applyResult, 1)} }}

// err reports why the request's submitter is no longer waiting, or nil.
func (r *applyReq) err() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if !r.deadline.IsZero() && !time.Now().Before(r.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// wait receives the request's answer, or gives up when its ctx ends or its
// deadline passes. Only a request whose answer it received goes back to
// the pool.
func (r *applyReq) wait() (*core.Report, uint64, error) {
	var expired <-chan time.Time
	if !r.deadline.IsZero() {
		d := time.Until(r.deadline)
		if r.timer == nil {
			r.timer = time.NewTimer(d)
		} else {
			r.timer.Reset(d) // stopped and drained when it was pooled
		}
		expired = r.timer.C
	}
	select {
	case res := <-r.resp:
		r.release()
		return res.rep, res.version, res.err
	case <-r.ctx.Done():
		// The writer will find the ended ctx; if it had already handed
		// the statement to the backend, the statement runs to completion
		// and the writer still publishes it (see Apply's
		// at-most-once-observable note).
		stopTimer(r.timer)
		return nil, 0, r.ctx.Err()
	case <-expired:
		return nil, 0, context.DeadlineExceeded
	}
}

// release stops the waiter's timer and returns the request to the pool,
// holding nothing of the statement it carried.
func (r *applyReq) release() {
	stopTimer(r.timer)
	r.ctx, r.st, r.deadline = nil, nil, time.Time{}
	applyReqPool.Put(r)
}

// stopTimer stops t, if there is one, and drains a tick it sent: go.mod's
// go 1.22 keeps timer channels buffered, so a Reset after an undrained
// tick would deliver the stale one.
func stopTimer(t *time.Timer) {
	if t != nil && !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
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
		qcache:  newQueryCache(),
		queue:   make(chan *applyReq, cfg.queueDepth()),
		done:    make(chan struct{}),
	}
	s.publish()
	go s.applyLoop()
	return s
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
		qcache:  newQueryCache(),
		done:    make(chan struct{}),
	}
	s.appliedLSN.Store(appliedLSN)
	s.leaderLast.Store(leaderLast)
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

// Stop stops the tenant: every later write is answered with
// ErrTenantStopped wrapping cause (the first one given), nothing more is
// published, and readers keep the last epoch. The writer calls it when a
// panic escapes the backend, a follower's tailer when replay panics.
func (s *Shard) Stop(cause error) {
	err := fmt.Errorf("%w: %w", ErrTenantStopped, cause)
	s.stopped.CompareAndSwap(nil, &err)
}

// Stopped returns the error a stopped tenant answers writes with, or nil.
func (s *Shard) Stopped() error {
	if err := s.stopped.Load(); err != nil {
		return *err
	}
	return nil
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
		return s.appliedLSN.Load(), s.repl.LastLSN()
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
// to readers (a statement that rode a translated batch gets a copy of the
// batch's merged report). The report is the caller's alone: it may hand it
// back with Release once it has read it. ErrQueueFull, ErrShuttingDown and
// ErrTenantStopped reject without queuing.
//
// Apply is at-most-once observable, not at-most-once: a ctx ending, or the
// shard's RequestTimeout passing, while the request is queued abandons the
// WAIT, not necessarily the statement. If either has when the writer
// drains the request, the statement is skipped with no effect; once the writer has taken it into a run, the
// statement is still applied, journaled, and published — the client just
// never sees the ack. Callers that time out
// must therefore treat the statement's fate as unknown; the
// server.abandoned_applied counter reports how often the applied-but-
// unacknowledged case actually happens.
func (s *Shard) Apply(ctx context.Context, st *update.Statement) (*core.Report, uint64, error) {
	req, err := s.submit(ctx, st)
	if err != nil {
		return nil, 0, err
	}
	return req.wait()
}

// submit enqueues one statement in a pooled request stamped with the
// shard's deadline.
func (s *Shard) submit(ctx context.Context, st *update.Statement) (*applyReq, error) {
	if s.replica {
		return nil, ErrReadOnly
	}
	if err := s.Stopped(); err != nil {
		return nil, err
	}
	req := applyReqPool.Get().(*applyReq)
	req.ctx, req.st = ctx, st
	if d := s.cfg.requestTimeout(); d > 0 {
		req.deadline = time.Now().Add(d)
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.m.rejectedShutdown.Inc()
		req.release()
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
		req.release()
		return nil, ErrQueueFull
	}
	return req, nil
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
// (the client's ctx ended or its deadline passed after the writer committed
// to the statement — its effects are published but nobody is reading the
// ack). The send is the writer's last touch of req: its waiter may pool it
// at once.
func (s *Shard) respond(req *applyReq, res applyResult) {
	if res.err == nil && req.err() != nil {
		s.m.abandonedApplied.Inc()
	}
	req.resp <- res
}

// applyRun applies one drained run and publishes the resulting epoch. A
// request whose ctx has ended or whose deadline has passed is answered
// here and left out of the run: this is the only place a deadline is
// checked. The rest go to the backend
// as one run, and every one of them is answered with the epoch published
// after it, so an acknowledged update is always readable
// (read-your-writes) and an unacknowledged one is at worst readable early,
// never lost. Once the tenant has stopped, every request is answered with
// the stop instead.
func (s *Shard) applyRun(batch []*applyReq) {
	stopped := s.Stopped()
	live, stmts := batch[:0], s.stmts[:0]
	for _, req := range batch {
		if stopped != nil {
			s.respond(req, applyResult{err: stopped})
			continue
		}
		if err := req.err(); err != nil {
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
	run, ok := s.applyOrStop(stmts)
	if !ok {
		s.applyRun(live) // answers each with the stop
		clear(batch)
		clear(stmts)
		return
	}
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
	if s.repl != nil {
		s.appliedLSN.Store(s.repl.LastLSN())
	}
	version := s.Epoch().Version
	// The statements of a translated plan share its merged report. Each
	// request gets one it alone owns, copied before any is answered: an
	// answered handler releases its report to the pool.
	var shared *core.Report
	for i := range run.Results {
		if rep := run.Results[i].Report; rep == nil || rep != shared {
			shared = rep
		} else {
			run.Results[i].Report = rep.Copy()
		}
	}
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

// applyOrStop hands the run to the backend. A panic that escapes it stops
// the tenant (Stop) and reports false: the engine may hold part of the run,
// and the log all of it, so nothing is published and the next open replays
// what the log holds.
func (s *Shard) applyOrStop(stmts []*update.Statement) (run pulopt.Run, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.m.applyPanics.Inc()
			s.Stop(fmt.Errorf("apply panicked: %v", r))
		}
	}()
	return s.backend.ApplyRun(stmts, s.results), true
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
// serving epoch, and counts what it holds and what it cost. What it cost is
// counted against the epoch it replaces — the views whose rows it shares
// with that one, the nodes allocated since — not against the engine's
// previous Snapshot, which may have been a checkpoint's capture. A newer
// version empties the result cache before any reader can load it.
func (s *Shard) swapEpoch(snap *core.Snapshot) {
	snap.Tenant = s.name
	s.m.rewriteCacheInval.Add(int64(s.qcache.advance(snap.Version)))
	prev := s.epoch.Swap(snap)
	s.m.epochs.Inc()
	s.tm.epochs.Inc()
	var rows, reused int64
	for i := range snap.Views {
		rows += int64(snap.Views[i].Rows.Len())
		if prev != nil && i < len(prev.Views) && prev.Views[i].ViewDef == snap.Views[i].ViewDef && prev.Views[i].Rows == snap.Views[i].Rows {
			reused++
		}
	}
	s.m.epochRows.Add(rows)
	s.m.epochViewsReused.Add(reused)
	s.m.epochDocNodes.Add(int64(snap.Doc().Size()))
	var before *xmltree.Document
	if prev != nil {
		before = prev.Doc()
	}
	s.m.epochDocCopied.Add(int64(snap.Doc().CopiedSince(before)))
}
