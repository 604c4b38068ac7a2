package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xivm/internal/obs"
	"xivm/internal/wal"
)

// The traced run records spans from the benchmark's side of seams the
// program already exposes: a span around every client call, the engine's own
// spans through an obs.Tracer handed in as a core option, and write/fsync
// spans through a timing decorator over wal.OSFS. No program file changes.

// span is one recorded interval. Parent is the index of the enclosing span
// in the trace (-1 for a root); spans of one client request share Op.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. Updates are applied
// one at a time (one writer connection, a single-writer shard), so the
// server-side spans of an update nest by time inside its client span: a
// stack gives each span its parent. Reads touch neither the engine's tracer
// nor the WAL, so reader spans stay off the stack and the mixed workload's
// two goroutines never interleave on it.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	stack []int
	op    int64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

// begin opens a span and returns the function that closes it. Nested spans
// (nest) take the innermost open nested span as parent and its op id.
func (r *recorder) begin(name, layer string, nest bool, newOp bool) func(bytes int) {
	if r == nil || !r.on.Load() {
		return func(int) {}
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	s := span{Name: name, Layer: layer, Parent: -1, StartNS: start}
	if newOp {
		r.op++
		s.Op = r.op
	}
	if nest && len(r.stack) > 0 {
		s.Parent = r.stack[len(r.stack)-1]
		s.Op = r.spans[s.Parent].Op
	}
	idx := len(r.spans)
	r.spans = append(r.spans, s)
	if nest {
		r.stack = append(r.stack, idx)
	}
	r.mu.Unlock()
	return func(bytes int) {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[idx].EndNS = end
		r.spans[idx].Bytes = bytes
		if nest {
			// Engine spans close in LIFO order; pop down to this one.
			for n := len(r.stack); n > 0 && r.stack[n-1] >= idx; n-- {
				r.stack = r.stack[:n-1]
			}
		}
		r.mu.Unlock()
	}
}

// StartSpan implements obs.Tracer for the engine's apply/phase/view spans.
func (r *recorder) StartSpan(name string) obs.Span {
	return endFunc(r.begin(name, "core", true, false))
}

type endFunc func(int)

func (f endFunc) End() { f(0) }

// mark returns the current span count; a round's spans are those between
// the marks taken before and after it.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// layerTimes sums the update path's spans by layer.
type layerTimes struct {
	clientMS               float64 // client update spans, whole
	coreMS                 float64 // the engine's apply spans, whole
	logWriteMS, logFsyncMS float64 // WAL segment I/O (the journal)
	logFsyncs, logBytes    int
}

func (a *layerTimes) add(b layerTimes) {
	a.clientMS += b.clientMS
	a.coreMS += b.coreMS
	a.logWriteMS += b.logWriteMS
	a.logFsyncMS += b.logFsyncMS
	a.logFsyncs += b.logFsyncs
	a.logBytes += b.logBytes
}

// layerTimes sums the spans with index in [lo,hi).
func (r *recorder) layerTimes(lo, hi int) layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lt layerTimes
	for i := lo; i < hi; i++ {
		s := &r.spans[i]
		ms := float64(s.EndNS-s.StartNS) / 1e6
		switch {
		case s.Layer == "client" && s.Name == "update":
			lt.clientMS += ms
		case s.Layer == "core" && strings.HasPrefix(s.Name, "apply:"):
			lt.coreMS += ms
		case s.Name == "fsync:log":
			lt.logFsyncMS += ms
			lt.logFsyncs++
		case s.Name == "write:log":
			lt.logWriteMS += ms
			lt.logBytes += s.Bytes
		}
	}
	return lt
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracingFS decorates wal.OSFS: every file write and Sync becomes a "wal"
// span (nested under the update in flight), with byte counts.
type tracingFS struct {
	wal.FS
	rec *recorder
}

func (t tracingFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	kind := "checkpoint"
	if strings.Contains(name, string(os.PathSeparator)+"wal"+string(os.PathSeparator)) {
		kind = "log"
	}
	return tracingFile{File: f, rec: t.rec, kind: kind}, nil
}

type tracingFile struct {
	wal.File
	rec  *recorder
	kind string
}

func (f tracingFile) Write(p []byte) (int, error) {
	end := f.rec.begin("write:"+f.kind, "wal", true, false)
	n, err := f.File.Write(p)
	end(n)
	return n, err
}

func (f tracingFile) Sync() error {
	end := f.rec.begin("fsync:"+f.kind, "wal", true, false)
	err := f.File.Sync()
	end(0)
	return err
}
