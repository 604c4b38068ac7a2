package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
)

// heldRegistry serves the default tenant with cfg's deadline behind a
// holdBackend: every run the writer hands the backend waits for the test.
func heldRegistry(t *testing.T, cfg Config) (*Shard, string, *holdBackend) {
	t.Helper()
	hb := &holdBackend{at: make(chan struct{}), release: make(chan struct{})}
	reg, ts := newTestRegistry(t, cfg, func(_ string, b Backend) Backend {
		hb.Backend = b
		return hb
	})
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	return sh, ts.URL + "/v1/db/" + DefaultTenant, hb
}

// requireTimeout fails unless the envelope is a 504 timeout.
func requireTimeout(t *testing.T, what string, code int, body []byte) {
	t.Helper()
	if code != http.StatusGatewayTimeout || !bytes.Contains(body, []byte(`"code":"`+CodeTimeout+`"`)) {
		t.Fatalf("%s: %d %s, want 504 %s", what, code, body, CodeTimeout)
	}
}

// awaitCounter waits for a counter to reach want; the writer counts after
// it has answered, so a test may see the answer first.
func awaitCounter(t *testing.T, m *obs.Metrics, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); m.CounterValue(name) != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, m.CounterValue(name), want)
		}
	}
}

// TestDeadlinePassesWhileQueued: a statement whose deadline passes while
// the writer is busy with another is answered 504 timeout by its handler,
// which derived no context for it, and when the writer reaches it, it is
// skipped — counted in server.apply.abandoned, never applied.
func TestDeadlinePassesWhileQueued(t *testing.T) {
	m := obs.New()
	sh, db, hb := heldRegistry(t, Config{Metrics: m, RequestTimeout: 50 * time.Millisecond})

	pilot := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, db+"/update", UpdateRequest{Statement: `insert <pilot/> into /site`})
		pilot <- resp.StatusCode
	}()
	<-hb.at // the writer holds the pilot's run
	resp, body := postJSON(t, db+"/update", UpdateRequest{Statement: `insert <queued/> into /site`})
	requireTimeout(t, "a statement queued past its deadline", resp.StatusCode, body)
	if code := <-pilot; code != http.StatusGatewayTimeout { // its waiter gave up while held
		t.Fatalf("pilot held past its deadline answered %d, want 504", code)
	}
	if m.CounterValue("server.apply.abandoned") != 0 {
		t.Fatal("server.apply.abandoned counted before the writer reached the statement")
	}
	hb.release <- struct{}{}
	awaitCounter(t, m, "server.apply.abandoned", 1)
	doc := sh.Epoch().Doc().String()
	if !strings.Contains(doc, "<pilot/>") || strings.Contains(doc, "<queued/>") {
		t.Fatalf("want the pilot applied and the queued statement skipped, the epoch holds %s", doc)
	}
}

// TestDeadlinePassesWhileApplied: a statement whose deadline passes once
// the writer has handed it to the backend is answered 504 timeout, and
// still applied and published: server.abandoned_applied counts it.
func TestDeadlinePassesWhileApplied(t *testing.T) {
	m := obs.New()
	sh, db, hb := heldRegistry(t, Config{Metrics: m, RequestTimeout: 50 * time.Millisecond})

	answered := make(chan []byte, 1)
	var code int
	go func() {
		resp, body := postJSON(t, db+"/update", UpdateRequest{Statement: `insert <late/> into /site`})
		code = resp.StatusCode
		answered <- body
	}()
	<-hb.at
	body := <-answered // the handler gives up while the run is held
	requireTimeout(t, "a statement held in its run past its deadline", code, body)
	hb.release <- struct{}{}
	awaitCounter(t, m, "server.abandoned_applied", 1)
	if got := m.CounterValue("server.apply.abandoned"); got != 0 {
		t.Fatalf("server.apply.abandoned = %d, want 0: the statement was applied", got)
	}
	if doc := sh.Epoch().Doc().String(); !strings.Contains(doc, "<late/>") {
		t.Fatalf("the statement whose client gave up was not published: %s", doc)
	}
}

// jitterBackend holds each run for up to max, so that deadlines pass while
// the writer answers.
type jitterBackend struct {
	Backend
	mu  sync.Mutex
	rnd *rand.Rand
	max time.Duration
}

func (b *jitterBackend) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	b.mu.Lock()
	d := time.Duration(b.rnd.Int63n(int64(b.max)))
	b.mu.Unlock()
	time.Sleep(d)
	return b.Backend.ApplyRun(stmts, dst)
}

// TestDeadlineStressPooledRequests races waiters that give up against a
// writer that answers: requests are pooled, so a request its waiter gave
// up on must never be pooled, and one answered must never be answered
// again. Every acknowledged statement must get its own report — a
// recycled request answered twice would hand one statement's report to
// another's waiter, or block the writer on a full answer channel — and
// every accepted request is answered once: applied, failed or abandoned.
// Runs are single statements, so that each report names its statement.
func TestDeadlineStressPooledRequests(t *testing.T) {
	m := obs.New()
	jb := &jitterBackend{Backend: EngineBackend{Eng: newTestEngine(t)}, rnd: rand.New(rand.NewSource(1)), max: 300 * time.Microsecond}
	s := NewShard("deadlines", jb, nil, Config{Metrics: m, QueueDepth: 1024, MaxBatch: 1, RequestTimeout: time.Millisecond})

	const writers, each = 8, 40
	apply := func(ctx context.Context, st *update.Statement, async bool) (*core.Report, error) {
		if !async {
			rep, _, err := s.Apply(ctx, st)
			return rep, err
		}
		wait, err := s.applyAsync(ctx, st)
		if err != nil {
			return nil, err
		}
		rep, _, err := wait()
		return rep, err
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				st := update.MustParse(fmt.Sprintf(`insert <s w="%d" i="%d"/> into /site`, w, i))
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if i%5 == 0 { // some waiters give up through their ctx instead
					ctx, cancel = context.WithTimeout(ctx, 200*time.Microsecond)
				}
				rep, err := apply(ctx, st, i%2 == 1)
				cancel()
				switch {
				case err == nil:
					acked.Add(1)
					if rep == nil || rep.Statement != st {
						t.Errorf("%s was acknowledged with the report of another statement: %+v", st, rep)
					}
				case !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled):
					t.Errorf("%s: %v", st, err)
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("the writer did not drain: %v", err)
	}

	applied, failed, abandoned := m.CounterValue("server.apply.count"), m.CounterValue("server.apply.errors"), m.CounterValue("server.apply.abandoned")
	if enq := m.CounterValue("server.apply.enqueued"); enq != applied+failed+abandoned || enq != writers*each {
		t.Errorf("enqueued %d, want %d, each answered once: applied %d + failed %d + abandoned %d", enq, writers*each, applied, failed, abandoned)
	}
	if n := acked.Load(); n > applied {
		t.Errorf("%d acknowledged, %d applied", n, applied)
	}
	t.Logf("%d acknowledged, %d applied, %d abandoned in the queue, %d applied after their waiter gave up",
		acked.Load(), applied, abandoned, m.CounterValue("server.abandoned_applied"))
}

// TestWarmUpdateAllocatesNoContextOrTimer pins what the deadline costs a
// warm update through the handler: the shard stamps a time on a pooled
// request and its waiter's timer is pooled with it, so no context is
// derived and no timer made. Allocations are sampled one by one
// (runtime.MemProfileRate = 1) around AllocsPerRun's runs; none may come
// from a context constructor, and none from a timer's but under the race
// detector, which drops a quarter of what a sync.Pool is given back, and
// with it a request and its timer.
func TestWarmUpdateAllocatesNoContextOrTimer(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{}, nil)
	h := reg.Handler()
	const target = `/site/open_auctions/open_auction[@id="open_auction0"]`
	pair := [2]string{
		`insert <bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder> into ` + target,
		`delete ` + target + `/bidder[xbench]`,
	}
	update := func(st string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/db/"+DefaultTenant+"/update", strings.NewReader(fmt.Sprintf(`{"statement": %q}`, st)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", st, rec.Code, rec.Body)
		}
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// One P: a request put back on one P and wanted on another is a pool
	// miss, which a goroutine that moves between them would see.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 4 { // warm: pools, program cache, array room
		update(pair[0])
		update(pair[1])
	}
	const runs = 20
	before := deadlineAllocs()
	allocs := testing.AllocsPerRun(runs, func() {
		update(pair[0])
		update(pair[1])
	})
	after := deadlineAllocs()
	t.Logf("%.0f allocations per warm insert/delete pair through the handler", allocs)
	var contexts, timers int64
	for fn, n := range after {
		if n -= before[fn]; strings.HasPrefix(fn, "context.") {
			contexts += n
		} else {
			timers += n
		}
	}
	if contexts > 0 {
		t.Errorf("%d objects allocated by context constructors in %d warm pairs", contexts, runs+1)
	}
	if timers > 0 && !raceDetector {
		t.Errorf("%d objects allocated by timer constructors in %d warm pairs", timers, runs+1)
	}
}

// deadlineAllocs counts the objects the memory profile has seen allocated
// under a context or timer constructor, by constructor. The profile is
// published when a collection completes, so it collects first: once, which
// leaves the request pool's objects in its victim cache.
func deadlineAllocs() map[string]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := map[string]int64{}
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "context.With") || f.Function == "time.NewTimer" || f.Function == "time.AfterFunc" {
				out[f.Function] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}
