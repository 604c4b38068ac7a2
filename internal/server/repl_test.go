package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"xivm/internal/obs"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

// newLeaderRegistry builds a durable registry (real WAL under a temp tenant
// root) with one tenant, over an httptest listener — the leader side of the
// replication endpoint tests.
func newLeaderRegistry(t *testing.T, walOpts wal.Options) (*Registry, *httptest.Server) {
	t.Helper()
	walOpts.Metrics = obs.New()
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      t.TempDir(),
		WAL:          walOpts,
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(DefaultTenant, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return reg, ts
}

func TestReplStatusAndStream(t *testing.T) {
	_, ts := newLeaderRegistry(t, wal.Options{})
	db := ts.URL + "/v1/db/" + DefaultTenant
	for _, stmt := range []string{
		`insert <person id="pr1"><name>Repl One</name></person> into /site/people`,
		`delete /site/people/person/phone`,
	} {
		if resp, _ := postUpdate(t, db, stmt); resp.StatusCode != http.StatusOK {
			t.Fatalf("update: status %d", resp.StatusCode)
		}
	}

	var st ReplStatusResponse
	if code := getJSON(t, db+"/repl/status", &st); code != http.StatusOK {
		t.Fatalf("repl/status: %d", code)
	}
	if st.Role != "leader" || st.LastLSN == 0 {
		t.Fatalf("status = %+v, want leader with nonzero last LSN", st)
	}

	resp, err := http.Get(db + "/repl/stream?from=1&follower=t1")
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repl/stream: %d (%s)", resp.StatusCode, frames)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	next, err := strconv.ParseUint(resp.Header.Get(HeaderReplNext), 10, 64)
	if err != nil || next != st.LastLSN+1 {
		t.Fatalf("next header %q, want %d", resp.Header.Get(HeaderReplNext), st.LastLSN+1)
	}
	recs, err := wal.DecodeFrames(frames, 1)
	if err != nil {
		t.Fatalf("decode shipped frames: %v", err)
	}
	if uint64(len(recs)) != st.LastLSN {
		t.Fatalf("shipped %d records, want %d", len(recs), st.LastLSN)
	}

	// The pinned follower shows up in the gauges.
	if code := getJSON(t, db+"/repl/status", &st); code != http.StatusOK || st.Followers != 1 {
		t.Fatalf("status after stream = %+v, want 1 follower", st)
	}

	// The snapshot endpoint ships a verifiable image.
	var snap ReplSnapshotResponse
	if code := getJSON(t, db+"/repl/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("repl/snapshot: %d", code)
	}
	img, err := wal.NewImage(snap.Manifest, snap.Doc, snap.Ords)
	if err != nil {
		t.Fatalf("shipped snapshot fails verification: %v", err)
	}
	if img.Manifest.LSN != snap.LSN {
		t.Fatalf("image LSN %d, response LSN %d", img.Manifest.LSN, snap.LSN)
	}
	if _, err := img.Restore(); err != nil {
		t.Fatalf("restoring shipped snapshot: %v", err)
	}
}

func TestReplStreamTruncatedIs410(t *testing.T) {
	reg, ts := newLeaderRegistry(t, wal.Options{SegmentBytes: 256, CheckpointEvery: 4})
	db := ts.URL + "/v1/db/" + DefaultTenant
	// Enough updates to roll several checkpoints and truncate the log head.
	for i := 0; i < 24; i++ {
		stmt := `insert <x/> into /site/people`
		if i%2 == 1 {
			stmt = `delete /site/people/x`
		}
		if resp, _ := postUpdate(t, db, stmt); resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
	}
	// Checkpoints are written off the writer, which truncates the log behind
	// one at its first statement after the checkpoint is out: the head may
	// still be there. Each round posts one more statement, so the writer
	// settles a checkpoint that finished meanwhile, until the stream from
	// LSN 1 is refused or the deadline passes.
	var resp *http.Response
	var body []byte
	for deadline := time.Now().Add(10 * time.Second); ; {
		var err error
		if resp, err = http.Get(db + "/repl/stream?from=1"); err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || time.Now().After(deadline) {
			break
		}
		if resp, _ := postUpdate(t, db, `insert <x/> into /site/people`); resp.StatusCode != http.StatusOK {
			t.Fatalf("settling update: status %d", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from truncated LSN: %d (%s), want 410", resp.StatusCode, body)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeSnapshotRequired {
		t.Fatalf("410 body %s, want code %s", body, CodeSnapshotRequired)
	}
	// Catch-up is snapshot first, then the stream resumes past the image.
	var snap ReplSnapshotResponse
	if code := getJSON(t, db+"/repl/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("repl/snapshot: %d", code)
	}
	if snap.LSN == 0 {
		t.Fatal("snapshot at LSN 0 after truncation")
	}
	resp, err := http.Get(db + "/repl/stream?from=" + strconv.FormatUint(snap.LSN+1, 10))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after snapshot: %d", resp.StatusCode)
	}
	_ = reg
}

func TestReplNotAvailableInMemory(t *testing.T) {
	_, ts := newTestRegistry(t, Config{}, nil)
	db := ts.URL + "/v1/db/" + DefaultTenant
	for _, ep := range []string{"/repl/stream?from=1", "/repl/snapshot"} {
		resp, err := http.Get(db + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", ep, resp.StatusCode)
		}
		var env ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeNoReplication {
			t.Fatalf("GET %s body %s, want code %s", ep, body, CodeNoReplication)
		}
	}
	// Status still answers (role defaults, everything zero).
	var st ReplStatusResponse
	if code := getJSON(t, db+"/repl/status", &st); code != http.StatusOK {
		t.Fatalf("repl/status on in-memory tenant: %d", code)
	}
}

func TestFollowerRegistryRejectsWrites(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Shard:      Config{Metrics: obs.New()},
		FollowerOf: "http://leader.example:8080",
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t)
	if _, err := reg.NewReplica(DefaultTenant, eng, 7, 9); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	db := ts.URL + "/v1/db/" + DefaultTenant

	// Reads serve normally at the applied LSN.
	var vr ViewsResponse
	if code := getJSON(t, db+"/views", &vr); code != http.StatusOK {
		t.Fatalf("views on follower: %d", code)
	}
	var stat TenantMetricsResponse
	if code := getJSON(t, db+"/metrics", &stat); code != http.StatusOK {
		t.Fatalf("metrics on follower: %d", code)
	}
	if stat.Role != "follower" || stat.AppliedLSN != 7 || stat.LastLSN != 9 {
		t.Fatalf("stat = %+v, want follower applied 7 last 9", stat.TenantStat)
	}

	// Updates and admin writes bounce with the typed envelope.
	resp, body := postUpdate(t, db, `insert <x/> into /site`)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("update on follower: %d (%+v)", resp.StatusCode, body)
	}
	rr, raw := postJSON(t, ts.URL+"/v1/db", CreateDBRequest{Name: "nope", Document: "<site/>"})
	if rr.StatusCode != http.StatusForbidden {
		t.Fatalf("create on follower: %d (%s)", rr.StatusCode, raw)
	}
	var env ErrorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeReadOnly {
		t.Fatalf("create error body %s, want code %s", raw, CodeReadOnly)
	}
	dr, raw := deleteReq(t, db)
	if dr.StatusCode != http.StatusForbidden {
		t.Fatalf("drop on follower: %d (%s)", dr.StatusCode, raw)
	}

	// Health reports the follower role and the max lag across tenants.
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Role != "follower" || h.MaxLagLSN != 2 {
		t.Fatalf("health = role %q lag %d, want follower/2", h.Role, h.MaxLagLSN)
	}

	// Shard-level rejection is the typed sentinel.
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh.Apply(context.Background(), mustStatement(t, `insert <x/> into /site`)); err != ErrReadOnly {
		t.Fatalf("shard apply on replica: %v, want ErrReadOnly", err)
	}
}
