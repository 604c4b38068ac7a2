package obs

import (
	"sort"
	"sync"
	"time"
)

// Tracer receives span start/finish events from the engine: one span per
// statement, per propagation phase, and per view in a fan-out.
// Implementations must be safe for concurrent use: one tracer may serve
// several engines, each applying on its own goroutine.
type Tracer interface {
	// StartSpan begins a span with a slash-separated name (e.g.
	// "apply/view:Q1/execute_update") and returns its handle.
	StartSpan(name string) Span
}

// Span is one open trace region; End closes it.
type Span interface {
	End()
}

// StartSpan starts a span on a possibly nil tracer, returning a no-op end
// function when the tracer is absent — the engine's nil-safe entry point.
func StartSpan(t Tracer, name string) func() {
	if t == nil {
		return func() {}
	}
	sp := t.StartSpan(name)
	return sp.End
}

// SpanRecord is one finished span as collected by CollectTracer.
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// CollectTracer is a Tracer that records finished spans in memory. No
// production code installs it: it is the instrument through which the
// tests of other packages (internal/core's among them) read the spans an
// engine opened.
type CollectTracer struct {
	mu    sync.Mutex
	spans []SpanRecord
}

type collectSpan struct {
	t     *CollectTracer
	name  string
	start time.Time
}

// StartSpan implements Tracer.
func (c *CollectTracer) StartSpan(name string) Span {
	return &collectSpan{t: c, name: name, start: time.Now()}
}

func (s *collectSpan) End() {
	rec := SpanRecord{Name: s.name, Start: s.start, Duration: time.Since(s.start)}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// Spans returns the finished spans sorted by start time.
func (c *CollectTracer) Spans() []SpanRecord {
	c.mu.Lock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Reset discards collected spans.
func (c *CollectTracer) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.mu.Unlock()
}

// TracerFunc adapts a function to the Tracer interface: the function is
// called at span start and its return value at span end.
type TracerFunc func(name string) func()

type funcSpan func()

func (f funcSpan) End() { f() }

// StartSpan implements Tracer.
func (f TracerFunc) StartSpan(name string) Span { return funcSpan(f(name)) }
