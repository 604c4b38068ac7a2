package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
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
	pilot, err := s.applyAsync(context.Background(), mustStatement(t, `insert <pilot/> into /site`))
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
		wait, err := s.applyAsync(ctx, mustStatement(t, src))
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

// TestConcurrentAnswersOwnTheirReports: writers post to one tenant over
// HTTP at once while its writer is held, so each wave lands as one
// translated batch whose statements share the plan's merged report. Each
// handler releases its report once it has answered, so every request must
// own its report: every answer of a wave carries the per-view counts a
// serial replay of that wave sums to, whatever order the wave queued in.
// Run under -race, a report shared between two answers is a data race.
func TestConcurrentAnswersOwnTheirReports(t *testing.T) {
	const waves, writers = 12, 4
	docXML := xmark.GenerateSmall(1, 0)
	views := append(testViewSpecs(),
		ViewSpec{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
		ViewSpec{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
		ViewSpec{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
	)
	m := obs.New()
	var pb *pausingBackend
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: m},
		DefaultDoc:   docXML,
		DefaultViews: views,
		wrapBackend: func(_ string, b Backend) Backend {
			pb = &pausingBackend{Backend: b, entered: make(chan struct{}, 1)}
			return pb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	sh, err := reg.Create(DefaultTenant, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	// The serial replay: a twin applying each statement on its own.
	doc, err := xmltree.ParseString(docXML)
	if err != nil {
		t.Fatal(err)
	}
	twin := core.New(doc, core.WithMetrics(obs.New()))
	for _, v := range views {
		if _, err := twin.AddView(v.Name, pattern.MustParse(v.Pattern)); err != nil {
			t.Fatal(err)
		}
	}
	serial := func(srcs ...string) UpdateResponse {
		var sum UpdateResponse
		for _, src := range srcs {
			rep, err := twin.ApplyStatement(mustStatement(t, src))
			if err != nil {
				t.Fatal(err)
			}
			sum.Targets += rep.Targets
			for i, vr := range rep.Views {
				if i == len(sum.Views) {
					sum.Views = append(sum.Views, UpdateViewJSON{Name: vr.View.Name})
				}
				sum.Views[i].RowsAdded += vr.RowsAdded
				sum.Views[i].RowsRemoved += vr.RowsRemoved
				sum.Views[i].RowsModified += vr.RowsModified
			}
		}
		return sum
	}
	post := func(src string) (UpdateResponse, error) {
		body, _ := json.Marshal(UpdateRequest{Statement: src})
		resp, err := http.Post(ts.URL+"/v1/db/"+DefaultTenant+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			return UpdateResponse{}, err
		}
		defer resp.Body.Close()
		var ur UpdateResponse
		if resp.StatusCode != http.StatusOK {
			return ur, fmt.Errorf("status %d", resp.StatusCode)
		}
		return ur, json.NewDecoder(resp.Body).Decode(&ur)
	}

	for w := range waves {
		// Four inserts no gate of the planner rejects in any order: distinct
		// targets, and no target step names a label another inserts.
		srcs := []string{
			fmt.Sprintf(`insert <person id="pw%d"><name>Wave %d</name></person> into /site/people`, w, w),
			`insert <bidder><increase>1.00</increase></bidder> into /site/open_auctions/open_auction`,
			fmt.Sprintf(`insert <category id="cw%d"><name>C</name></category> into /site/categories`, w),
			`insert <item><name>I</name></item> into /site/regions/africa`,
		}[:writers]
		pilot := `insert <pilot/> into /site`
		pb.mu.Lock()
		pilotDone := make(chan error, 1)
		go func() { _, err := post(pilot); pilotDone <- err }()
		select {
		case <-pb.entered:
		case <-time.After(10 * time.Second):
			pb.mu.Unlock()
			t.Fatal("the writer never took the pilot")
		}
		type answer struct {
			ur  UpdateResponse
			err error
		}
		answers := make(chan answer, len(srcs))
		for _, src := range srcs {
			go func() {
				ur, err := post(src)
				answers <- answer{ur, err}
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); sh.QueueLen() < len(srcs); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				pb.mu.Unlock()
				t.Fatalf("wave %d: %d of %d statements queued", w, sh.QueueLen(), len(srcs))
			}
		}
		pb.mu.Unlock()
		<-pb.entered // the wave's run
		if err := <-pilotDone; err != nil {
			t.Fatalf("wave %d pilot: %v", w, err)
		}
		serial(pilot)
		want := serial(srcs...)
		for range srcs {
			a := <-answers
			if a.err != nil {
				t.Fatalf("wave %d: %v", w, a.err)
			}
			if a.ur.Targets != want.Targets || !reflect.DeepEqual(a.ur.Views, want.Views) {
				t.Fatalf("wave %d: answered %+v, a serial replay sums to %+v", w, a.ur, want)
			}
		}
	}
	if got := m.CounterValue("server.batch.count"); got != waves {
		t.Fatalf("%d translated batches, want one a wave (%d)", got, waves)
	}
}
