package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	m := New()
	c := m.Counter("x")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Counter("x").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter %d", c.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var m *Metrics
	m.Counter("a").Add(3)
	m.Histogram("b").Observe(time.Second)
	if m.Counter("a").Value() != 0 || m.Histogram("b").Count() != 0 {
		t.Fatal("nil registry must be a sink")
	}
	if m.CounterValue("a") != 0 {
		t.Fatal("nil registry CounterValue")
	}
	var c *Counter
	c.Inc() // must not panic
	var h *Histogram
	h.Observe(time.Second)
	ran := false
	h.Time(func() { ran = true })
	if !ran {
		t.Fatal("nil histogram Time must still run f")
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := New()
	h := m.Histogram("d")
	h.Observe(500 * time.Nanosecond) // ≤1µs bucket
	h.Observe(5 * time.Millisecond)  // ≤10ms bucket
	h.Observe(time.Minute)           // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != time.Minute {
		t.Fatalf("max %v", h.Max())
	}
	want := 500*time.Nanosecond + 5*time.Millisecond + time.Minute
	if h.Sum() != want {
		t.Fatalf("sum %v", h.Sum())
	}
	snap := h.snapshot("d")
	var total int64
	overflow := false
	for _, b := range snap.Buckets {
		total += b.Count
		if b.UpperBound == 0 {
			overflow = true
		}
	}
	if total != 3 || !overflow {
		t.Fatalf("buckets %+v", snap.Buckets)
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	m := New()
	m.Counter("b.two").Add(2)
	m.Counter("a.one").Add(1)
	m.Histogram("h").Observe(time.Millisecond)
	s := m.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.one" || s.Counters[1].Value != 2 {
		t.Fatalf("snapshot %+v", s.Counters)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("json round-trip %+v", back.Histograms)
	}
	m.Reset()
	if m.CounterValue("b.two") != 0 || m.Histogram("h").Count() != 0 {
		t.Fatal("reset left state behind")
	}
}

func TestCollectTracer(t *testing.T) {
	var tr CollectTracer
	end := StartSpan(&tr, "apply/view:Q1/execute_update")
	time.Sleep(time.Millisecond)
	end()
	spans := tr.Spans()
	if len(spans) != 1 || !strings.HasPrefix(spans[0].Name, "apply/") {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].Duration <= 0 {
		t.Fatal("span duration not measured")
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("reset kept spans")
	}
	// Nil tracer: StartSpan returns a usable no-op.
	StartSpan(nil, "x")()
	// Func adapter.
	var got string
	ft := TracerFunc(func(name string) func() { return func() { got = name } })
	StartSpan(ft, "fn")()
	if got != "fn" {
		t.Fatal("TracerFunc end not invoked")
	}
}

func TestDefaultRegistryShared(t *testing.T) {
	Default().Counter("test.default.shared").Inc()
	if Default().CounterValue("test.default.shared") == 0 {
		t.Fatal("default registry not shared")
	}
}

// Reset zeroes every registered instrument (the names stay registered).
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.counters {
		c.reset()
	}
	for _, h := range m.histograms {
		h.reset()
	}
}

func (c *Counter) reset() { c.v.Store(0) }

// Time records the duration of f in the histogram. Safe on a nil receiver
// (f still runs).
func (h *Histogram) Time(f func()) {
	if h == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	h.Observe(time.Since(t0))
}

// Max returns the largest observation; zero on a nil receiver.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}
