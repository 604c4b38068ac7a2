package obs

import (
	"sync/atomic"
	"time"
)

// histBuckets are the fixed duration bucket upper bounds: decades from 1µs
// to 10s, with a catch-all overflow bucket. Propagation phases on the
// paper's workloads span exactly this range, so a static layout avoids any
// allocation or locking on the observe path.
var histBuckets = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

const numBuckets = len(histBuckets) + 1 // +1 for the overflow bucket

// Histogram is a fixed-bucket duration histogram with atomic buckets. The
// zero value is ready to use; a nil *Histogram is a no-op sink.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// Observe records one duration. Safe on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(histBuckets) && d > histBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time; zero on a nil receiver.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// HistogramBucket is one bucket of a histogram snapshot: the count of
// observations with duration ≤ UpperBound (0 marks the overflow bucket).
type HistogramBucket struct {
	UpperBound time.Duration `json:"le"`
	Count      int64         `json:"count"`
}

// HistogramSnapshot is a histogram's point-in-time state.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	MaxNS   int64             `json:"max_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{Name: name, Count: h.count.Load(), SumNS: h.sum.Load(), MaxNS: h.max.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := HistogramBucket{Count: n}
		if i < len(histBuckets) {
			b.UpperBound = histBuckets[i]
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}
