package server

import (
	"context"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
)

// gatedShard builds a shard over the in-memory test engine whose writer can
// be parked at the engine boundary (pausingBackend) and observed committing
// to a statement (entered tokens), so tests can force exact batch shapes.
func gatedShard(t *testing.T, m *obs.Metrics) (*Shard, *pausingBackend) {
	t.Helper()
	pb := &pausingBackend{
		Backend: EngineBackend{Eng: newTestEngine(t)},
		entered: make(chan struct{}, 64),
	}
	s := NewShard("batch-test", pb, nil, Config{Metrics: m})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s, pb
}

// enqueueExactBatch forces the writer to drain srcs as one unit: it parks
// the writer on a pilot statement (waiting for the entered token proves the
// writer drained the pilot alone and is blocked at the engine boundary),
// enqueues every src while the writer is held, then releases it. ctxs, when
// non-nil, supplies a per-statement context. Returns the pilot's wait
// followed by one wait per src.
func enqueueExactBatch(t *testing.T, s *Shard, pb *pausingBackend, ctxs []context.Context, srcs ...string) []func() (*core.Report, uint64, error) {
	t.Helper()
	pb.mu.Lock()
	waits := make([]func() (*core.Report, uint64, error), 0, len(srcs)+1)
	pilot, err := s.ApplyAsync(context.Background(), mustStatement(t, `insert <pilot/> into /site`))
	if err != nil {
		pb.mu.Unlock()
		t.Fatalf("enqueue pilot: %v", err)
	}
	waits = append(waits, pilot)
	select {
	case <-pb.entered:
	case <-time.After(10 * time.Second):
		pb.mu.Unlock()
		t.Fatal("writer never reached the engine boundary for the pilot")
	}
	for i, src := range srcs {
		ctx := context.Background()
		if ctxs != nil {
			ctx = ctxs[i]
		}
		wait, err := s.ApplyAsync(ctx, mustStatement(t, src))
		if err != nil {
			pb.mu.Unlock()
			t.Fatalf("enqueue stmt %d: %v", i, err)
		}
		waits = append(waits, wait)
	}
	pb.mu.Unlock()
	return waits
}

// TestShardBatchTranslatedMetrics drives one forced four-statement batch of
// compatible inserts through the writer and pins down the accounting: one
// translated batch, four batched statements, a single published epoch whose
// version every constituent ack shares, and no fallbacks.
func TestShardBatchTranslatedMetrics(t *testing.T) {
	m := obs.New()
	s, pb := gatedShard(t, m)
	v0 := s.Epoch().Version
	e0 := m.CounterValue("snapshot.epochs")

	waits := enqueueExactBatch(t, s, pb, nil,
		`insert <batchm0/> into /site/people`,
		`insert <batchm1/> into /site/regions`,
		`insert <batchm2/> into /site/open_auctions`,
		`insert <batchm3/> into /site/closed_auctions`,
	)

	rep, pilotVersion, err := waits[0]()
	if err != nil || rep == nil {
		t.Fatalf("pilot: rep=%v err=%v", rep, err)
	}
	if pilotVersion != v0+1 {
		t.Fatalf("pilot acked at version %d, want %d", pilotVersion, v0+1)
	}
	batchVersion := pilotVersion + uint64(len(waits)-1)
	for i, wait := range waits[1:] {
		rep, version, err := wait()
		if err != nil || rep == nil {
			t.Fatalf("stmt %d: rep=%v err=%v", i, rep, err)
		}
		if version != batchVersion {
			t.Fatalf("stmt %d acked at version %d, want the batch's single epoch %d", i, version, batchVersion)
		}
	}
	if got := s.Epoch().Version; got != batchVersion {
		t.Fatalf("final epoch version %d, want %d", got, batchVersion)
	}

	if got := m.CounterValue("server.batch.count"); got != 1 {
		t.Fatalf("server.batch.count = %d, want 1", got)
	}
	if got := m.CounterValue("server.batch.statements"); got != 4 {
		t.Fatalf("server.batch.statements = %d, want 4", got)
	}
	if got := m.CounterValue("server.batch.fallbacks"); got != 0 {
		t.Fatalf("server.batch.fallbacks = %d, want 0", got)
	}
	if got := m.CounterValue("server.apply.count"); got != 5 {
		t.Fatalf("server.apply.count = %d, want 5 (pilot + 4 batched)", got)
	}
	// Exactly two epochs after construction: the pilot's and the batch's.
	if got := m.CounterValue("snapshot.epochs") - e0; got != 2 {
		t.Fatalf("published %d epochs, want 2 (pilot + one per batch)", got)
	}
}

// TestShardBatchFallbackReason forces a batch the planner must reject (it
// contains a replace) and asserts the per-statement fallback: a reason-keyed
// fallback counter, no translated batch, every statement applied, and one
// epoch published for the run, whose version every constituent ack shares.
func TestShardBatchFallbackReason(t *testing.T) {
	m := obs.New()
	s, pb := gatedShard(t, m)
	v0 := s.Epoch().Version
	e0 := m.CounterValue("snapshot.epochs")

	waits := enqueueExactBatch(t, s, pb, nil,
		`insert <batchf0/> into /site/people`,
		`replace /site/people/person/name with <name>Fallback Renamed</name>`,
		`insert <batchf1/> into /site/regions`,
	)

	versions := make([]uint64, len(waits))
	for i, wait := range waits {
		rep, version, err := wait()
		if err != nil || rep == nil {
			t.Fatalf("stmt %d: rep=%v err=%v", i, rep, err)
		}
		versions[i] = version
	}
	// The pilot ran alone; the run's statements share the epoch published
	// after the last of them (a replace advances the version twice).
	if versions[0] != v0+1 {
		t.Fatalf("pilot acked at version %d, want %d", versions[0], v0+1)
	}
	final := s.Epoch().Version
	if final != v0+5 {
		t.Fatalf("final epoch version %d, want %d", final, v0+5)
	}
	for i, v := range versions[1:] {
		if v != final {
			t.Fatalf("stmt %d acked at version %d, want the run's epoch %d", i, v, final)
		}
	}

	if got := m.CounterValue("server.batch.count"); got != 0 {
		t.Fatalf("server.batch.count = %d, want 0", got)
	}
	if got := m.CounterValue("server.batch.fallbacks"); got != 1 {
		t.Fatalf("server.batch.fallbacks = %d, want 1", got)
	}
	if got := m.CounterValue("server.batch.fallback.replace"); got != 1 {
		t.Fatalf("server.batch.fallback.replace = %d, want 1", got)
	}
	if got := m.CounterValue("server.apply.count"); got != 4 {
		t.Fatalf("server.apply.count = %d, want 4", got)
	}
	if got := m.CounterValue("snapshot.epochs") - e0; got != 2 {
		t.Fatalf("published %d epochs, want 2 (pilot + one per run)", got)
	}
}

// TestCancelledRequestLeavesTheRun: a drained request whose client already
// gave up is answered and left out of its run — skipped before the engine
// is touched (server.apply.abandoned, never server.abandoned_applied) —
// and the rest of the run is still translated as one batch.
func TestCancelledRequestLeavesTheRun(t *testing.T) {
	m := obs.New()
	s, pb := gatedShard(t, m)
	v0 := s.Epoch().Version

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	waits := enqueueExactBatch(t, s, pb,
		[]context.Context{context.Background(), cancelled, context.Background()},
		`insert <batchc0/> into /site/people`,
		`insert <batchc1/> into /site/regions`,
		`insert <batchc2/> into /site/open_auctions`,
	)

	if _, _, err := waits[0](); err != nil {
		t.Fatalf("pilot: %v", err)
	}
	// Pilot + two survivors; the cancelled statement must have no effect.
	want := v0 + 3
	for _, i := range []int{1, 3} {
		rep, version, err := waits[i]()
		if err != nil || rep == nil {
			t.Fatalf("stmt %d: rep=%v err=%v, want applied", i-1, rep, err)
		}
		if version != want {
			t.Fatalf("stmt %d acked at version %d, want the run's epoch %d", i-1, version, want)
		}
	}
	if _, _, err := waits[2](); err == nil {
		t.Fatal("cancelled statement was acknowledged without error")
	}

	if got := s.Epoch().Version; got != want {
		t.Fatalf("final epoch version %d, want %d", got, want)
	}
	if got := m.CounterValue("server.batch.count"); got != 1 {
		t.Fatalf("server.batch.count = %d, want 1: the two live statements are one translated run", got)
	}
	if got := m.CounterValue("server.batch.statements"); got != 2 {
		t.Fatalf("server.batch.statements = %d, want 2", got)
	}
	if got := m.CounterValue("server.batch.fallbacks"); got != 0 {
		t.Fatalf("server.batch.fallbacks = %d, want 0", got)
	}
	if got := m.CounterValue("server.batch.fallback.cancelled"); got != 0 {
		t.Fatalf("server.batch.fallback.cancelled = %d, want 0", got)
	}
	if got := m.CounterValue("server.apply.abandoned"); got != 1 {
		t.Fatalf("server.apply.abandoned = %d, want 1", got)
	}
	if got := m.CounterValue("server.abandoned_applied"); got != 0 {
		t.Fatalf("server.abandoned_applied = %d, want 0 (statement was skipped, not applied)", got)
	}
}
