package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"xivm/internal/core"
	"xivm/internal/update"
)

// xpathResponse decodes the body appendXPath writes for q against one
// snapshot, explain on: the differential tests compare rewritten and walked
// answers at the same epoch as wire structs, Plan always set.
func (r *Registry) xpathResponse(sh *Shard, snap *core.Snapshot, q string, allowRewrite bool) (XPathResponse, error) {
	var resp XPathResponse
	body, err := r.appendXPath(nil, sh, snap, q, allowRewrite, true)
	if err != nil {
		return resp, err
	}
	return resp, json.Unmarshal(body, &resp)
}

// intendedDeclines books the bodies a test handed to the decoder knowing it
// would decline them; every other decline in a run of this package's tests
// is a body our own server wrote that decode.go does not follow.
var intendedDeclines atomic.Uint64

// declining runs f and books the declines it caused as intended.
func declining(f func()) {
	before := decodeDeclined.Load()
	f()
	intendedDeclines.Add(decodeDeclined.Load() - before)
}

// RequestDeclines and ResponseDeclines count the request and response
// bodies the decoders have handed to encoding/json so far, for the external
// tests of this package.
func RequestDeclines() uint64  { return requestDeclined.Load() }
func ResponseDeclines() uint64 { return decodeDeclined.Load() }

// TestMain holds the whole package to it: the HTTP read and update tests,
// the leader/follower byte-equality harness, the rewrite differential and
// the stress tests all decode what the handlers wrote, and none of it may
// have taken the encoding/json fallback.
func TestMain(m *testing.M) {
	code := m.Run()
	if got, want := decodeDeclined.Load(), intendedDeclines.Load(); code == 0 && got != want {
		fmt.Fprintf(os.Stderr, "FAIL: the response decoder declined %d bodies, %d of them on purpose\n", got, want)
		code = 1
	}
	os.Exit(code)
}

// applyAsync enqueues one statement and returns immediately with a wait
// function, under the same contract as Apply (which is applyAsync + wait).
// Split submission lets one goroutine enqueue several statements
// back-to-back — guaranteeing their FIFO order in the writer's queue, which
// a goroutine-per-Apply submission cannot — and collect the acks
// afterwards; the bursty stress and batch tests use it to force
// deterministic multi-statement batches.
func (s *Shard) applyAsync(ctx context.Context, st *update.Statement) (func() (*core.Report, uint64, error), error) {
	req, err := s.submit(ctx, st)
	if err != nil {
		return nil, err
	}
	return req.wait, nil
}
