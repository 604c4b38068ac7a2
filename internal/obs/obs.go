// Package obs is the engine's zero-dependency observability layer: named
// atomic counters, fixed-bucket duration histograms, phase-keyed time
// breakdowns, and a Tracer hook interface. The propagation path
// (internal/core, internal/algebra, internal/store, internal/pulopt) is
// instrumented against it, so every experiment can also emit the counter
// profile that explains its timings — the maintenance-cost accounting that
// view-rewriting planners need on live workloads.
//
// All hot-path operations (Counter.Add, Histogram.Observe) are lock-free
// and safe for concurrent use; nil receivers are no-ops, so instrumented
// code never needs to guard against a missing registry.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Metrics is a registry of named counters and histograms. Names are flat,
// dot-separated strings ("core.terms.pruned.prop36"); the registry creates
// instruments on first use, so readers and writers need no coordination
// beyond the name. The zero value is NOT usable — call New.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// New returns an empty metrics registry.
func New() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

var (
	defaultOnce sync.Once
	defaultReg  *Metrics
)

// Default returns the process-wide shared registry. Engines that are not
// given a private registry record here, which is what lets command-line
// tools dump a whole run's profile without threading a handle through
// every layer.
func Default() *Metrics {
	defaultOnce.Do(func() { defaultReg = New() })
	return defaultReg
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent use; returns nil (a no-op counter) on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the named duration histogram, creating it on first
// use. Safe for concurrent use; returns nil (a no-op histogram) on a nil
// registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// CounterSnapshot is one counter's point-in-time value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a consistent point-in-time copy of a registry, ready for
// JSON serialization or diffing.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current value, sorted by name.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	for name, c := range m.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, h := range m.histograms {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	m.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterValue returns the named counter's current value without creating
// it (zero when absent).
func (m *Metrics) CounterValue(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}
