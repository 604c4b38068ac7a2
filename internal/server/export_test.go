package server

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"xivm/internal/core"
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

// TestMain holds the whole package to it: the HTTP read tests, the
// leader/follower byte-equality harness, the rewrite differential and the
// stress tests all decode what the handlers wrote, and none of it may have
// taken the encoding/json fallback.
func TestMain(m *testing.M) {
	code := m.Run()
	if got, want := decodeDeclined.Load(), intendedDeclines.Load(); code == 0 && got != want {
		fmt.Fprintf(os.Stderr, "FAIL: the read-path decoder declined %d bodies, %d of them on purpose\n", got, want)
		code = 1
	}
	os.Exit(code)
}
