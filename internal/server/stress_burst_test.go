package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

// pausingBackend lets batching tests hold the writer at the engine boundary
// while statements are enqueued. The writer drains the queue BEFORE calling
// the backend, so releasing the lock after a full wave is queued guarantees
// at least one genuinely multi-statement batch per wave — the tests do not
// depend on scheduler luck to exercise batching. When entered is non-nil it
// receives one token as each backend call begins (before blocking on the
// lock), which lets a test wait until the writer has committed to a
// statement and only then enqueue the batch it wants drained as one unit.
type pausingBackend struct {
	Backend
	mu      sync.Mutex
	entered chan struct{}
}

func (b *pausingBackend) enter() {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	// The lock is a turnstile: acquiring it means the test finished
	// enqueueing the wave.
	b.mu.Lock()
	//lint:ignore SA2001 turnstile
	b.mu.Unlock()
}

func (b *pausingBackend) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	b.enter()
	return b.Backend.ApplyRun(stmts, dst)
}

// burstWave is wave w of the bursty write mix. The first six statements are
// deliberately batchable — predicate-free name paths, six distinct targets
// (no IO conflict), forest labels unique to the wave (no label overlap) —
// and from wave 2 on a delete retires a node inserted two waves earlier.
// Every fifth wave appends a replace, which the planner must reject,
// forcing the whole wave down the per-statement fallback; the oracle must
// hold on that path too.
func burstWave(w int) []string {
	srcs := []string{
		fmt.Sprintf(`insert <bw%ds0/> into /site/people`, w),
		fmt.Sprintf(`insert <bw%ds1/> into /site/regions`, w),
		fmt.Sprintf(`insert <bw%ds2/> into /site/open_auctions`, w),
		fmt.Sprintf(`insert <bw%ds3/> into /site/closed_auctions`, w),
		fmt.Sprintf(`insert <bw%ds4><deep/></bw%ds4> into /site/categories`, w, w),
	}
	if w >= 2 {
		srcs = append(srcs, fmt.Sprintf(`delete /site/people/bw%ds0`, w-2))
	}
	if w%5 == 4 {
		srcs = append(srcs, `replace /site/people/person/name with <name>Burst Renamed</name>`)
	}
	return srcs
}

// burstRunResult is one bursty run's observable outcome, compared across
// batching-on and batching-off runs.
type burstRunResult struct {
	doc       string
	version   uint64
	batches   int64
	fallbacks int64
}

// runBurstyShard drives one WAL-backed shard through burstWave waves
// submitted as FIFO bursts (ApplyAsync from a single goroutine), with the
// shadow oracle replayed strictly before each wave is enqueued and a
// concurrent monitor asserting that every published epoch equals a fresh
// recomputation at that version. Run under -race.
func runBurstyShard(t *testing.T, maxBatch int) burstRunResult {
	t.Helper()
	const waves = 30
	docXML := xmark.GenerateSmall(3, 0)

	db, err := wal.Create(t.TempDir(), []byte(docXML), wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stressViews {
		if _, err := db.AddView(name, xmark.View(name).String()); err != nil {
			t.Fatalf("add view %s: %v", name, err)
		}
	}
	oracle := newShadowOracle(t, docXML)

	metrics := obs.New()
	pb := &pausingBackend{Backend: db}
	s := NewShard("burst", pb, db.Close, Config{MaxBatch: maxBatch, Metrics: metrics})

	stop := make(chan struct{})
	errc := make(chan string, 2)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Epoch monitor: every snapshot any reader could observe must be a
	// recorded oracle state, and its view rows must equal recomputing the
	// view from scratch at that document version. Batching must never
	// publish a version the sequential schedule could not have reached.
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.Epoch()
			if snap.Version != last {
				if snap.Version < last {
					fail("epoch version went backwards: %d after %d", snap.Version, last)
					return
				}
				exp := oracle.at(snap.Version)
				if exp == nil {
					fail("published epoch at unrecorded version %d", snap.Version)
					return
				}
				for i := range snap.Views {
					vs := &snap.Views[i]
					if !equalRowJSON(rowsToJSON(vs.Pattern, vs.Rows.AppendTo(nil)), exp.views[vs.Name]) {
						fail("epoch %d view %s does not equal fresh recomputation", snap.Version, vs.Name)
						return
					}
				}
				last = snap.Version
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var lastAck uint64
	for w := 0; w < waves; w++ {
		srcs := burstWave(w)
		// Shadow-replay the whole wave first: by the time the server can
		// publish any of these versions, its expectation exists.
		want := make([]uint64, len(srcs))
		for i, src := range srcs {
			want[i] = oracle.step(t, src)
		}
		// Enqueue the wave while the writer is held at the engine boundary,
		// then release; single-goroutine ApplyAsync guarantees FIFO order.
		pb.mu.Lock()
		waits := make([]func() (*core.Report, uint64, error), len(srcs))
		for i, src := range srcs {
			wait, err := s.ApplyAsync(context.Background(), mustStatement(t, src))
			if err != nil {
				pb.mu.Unlock()
				t.Fatalf("wave %d stmt %d: enqueue: %v", w, i, err)
			}
			waits[i] = wait
		}
		pb.mu.Unlock()
		for i, wait := range waits {
			rep, version, err := wait()
			if err != nil {
				t.Fatalf("wave %d stmt %d: %v", w, i, err)
			}
			if rep == nil {
				t.Fatalf("wave %d stmt %d: acknowledged without a report", w, i)
			}
			// Read-your-writes: the ack's version is at least the version
			// this statement lands on sequentially (a batch ack is the
			// whole batch's published version), and it must be a recorded
			// sequential state — never an invented intermediate.
			if version < want[i] {
				t.Fatalf("wave %d stmt %d: ack at version %d, sequential apply reaches %d", w, i, version, want[i])
			}
			if oracle.at(version) == nil {
				t.Fatalf("wave %d stmt %d: ack at unrecorded version %d", w, i, version)
			}
			if version < lastAck {
				t.Fatalf("wave %d stmt %d: ack version went backwards: %d after %d", w, i, version, lastAck)
			}
			lastAck = version
		}
	}

	// Every statement acknowledged: the shard's final epoch is the shadow's
	// final state, exactly.
	snap := s.Epoch()
	if snap.Version != oracle.eng.Version() {
		t.Fatalf("final epoch version %d != shadow version %d", snap.Version, oracle.eng.Version())
	}
	if got, want := snap.Doc().String(), oracle.eng.Doc.String(); got != want {
		t.Fatalf("final document diverged from shadow\nserved: %s\nshadow: %s", got, want)
	}
	exp := oracle.at(snap.Version)
	for i := range snap.Views {
		vs := &snap.Views[i]
		if !equalRowJSON(rowsToJSON(vs.Pattern, vs.Rows.AppendTo(nil)), exp.views[vs.Name]) {
			t.Fatalf("final epoch view %s diverges from fresh recomputation", vs.Name)
		}
	}

	close(stop)
	monWG.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}

	res := burstRunResult{
		doc:       snap.Doc().String(),
		version:   snap.Version,
		batches:   metrics.CounterValue("server.batch.count"),
		fallbacks: metrics.CounterValue("server.batch.fallbacks"),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	return res
}

// TestStressBurstyWriterBatches is the batching acceptance test: the same
// bursty workload runs once with batching on (default MaxBatch) and once
// with it disabled (MaxBatch 1), and the two runs must be indistinguishable
// — identical final documents, identical final versions, and every
// published epoch along the way equal to fresh recomputation against the
// per-statement shadow. The batched run must have actually translated
// batches, and its replace waves must have actually exercised the
// per-statement fallback; the disabled run must never batch.
func TestStressBurstyWriterBatches(t *testing.T) {
	batched := runBurstyShard(t, 0)
	serial := runBurstyShard(t, 1)

	if batched.batches == 0 {
		t.Fatal("batched run never translated a batch — the burst harness is not forcing batches")
	}
	if batched.fallbacks == 0 {
		t.Fatal("batched run never fell back — the replace waves are not exercising the fallback path")
	}
	if serial.batches != 0 {
		t.Fatalf("MaxBatch=1 run translated %d batches, want 0", serial.batches)
	}
	if batched.version != serial.version {
		t.Fatalf("final versions diverge: batched %d, per-statement %d", batched.version, serial.version)
	}
	if batched.doc != serial.doc {
		t.Fatalf("final documents diverge between batched and per-statement runs\nbatched: %s\nserial:  %s", batched.doc, serial.doc)
	}
}
