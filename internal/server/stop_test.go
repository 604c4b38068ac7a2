package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/pulopt"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// replacePanics is a tracer that makes every replace statement panic as it
// starts while armed is set. The planner refuses a run that holds a
// replace, so every fold — the shard's writer, wal.Replay at any chunk
// size, a follower — applies one through Engine.ApplyStatement, whose span
// this is.
func replacePanics(armed *atomic.Bool) obs.Tracer {
	return obs.TracerFunc(func(name string) func() {
		if name == "apply:replace" && armed.Load() {
			panic("injected replace failure")
		}
		return func() {}
	})
}

// holdBackend parks every run at the engine boundary: the writer announces
// itself on at and goes on when the test sends on release.
type holdBackend struct {
	Backend
	at, release chan struct{}
}

func (b *holdBackend) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	b.at <- struct{}{}
	<-b.release
	return b.Backend.ApplyRun(stmts, dst)
}

// get fetches url and returns its status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// servedBodies is what a tenant serves: its views' bodies and its epoch's
// document.
func servedBodies(t *testing.T, dbURL string, sh *Shard) [][]byte {
	t.Helper()
	var out [][]byte
	for _, v := range testViewSpecs() {
		code, body := get(t, dbURL+"/views/"+v.Name)
		if code != http.StatusOK {
			t.Fatalf("GET view %s: %d %s", v.Name, code, body)
		}
		out = append(out, body)
	}
	return append(out, []byte(sh.Epoch().Doc().String()))
}

// requireStopped fails unless the envelope is a 503 tenant_stopped whose
// message holds want.
func requireStopped(t *testing.T, what string, code int, body []byte, want string) {
	t.Helper()
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"code":"`+CodeStopped+`"`)) || !bytes.Contains(body, []byte(want)) {
		t.Fatalf("%s: %d %s, want 503 %s naming %q", what, code, body, CodeStopped, want)
	}
}

// healthStopped returns /healthz's stopped map.
func healthStopped(t *testing.T, base string) map[string]string {
	t.Helper()
	var h HealthResponse
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	return h.Stopped
}

// openRegistry opens cfg's tenant root behind an HTTP listener and returns
// a shutdown that is safe to call twice.
func openRegistry(t *testing.T, cfg RegistryConfig) (*Registry, string, func()) {
	t.Helper()
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	var done atomic.Bool
	shutdown := func() {
		if done.Swap(true) {
			return
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := reg.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(shutdown)
	return reg, ts.URL, shutdown
}

// TestApplyPanicStopsTheTenant: a run whose second statement panics stops
// its durable tenant. Every request of the run, and every later write, is
// answered 503 tenant_stopped; the tenant keeps serving the epoch before
// the run, byte for byte; its sibling goes on. Reopened with the panic
// still injected, the tenant's replay panics on the same statement, so the
// registry keeps it stopped, by name, beside the sibling it serves; with
// the panic gone, the tenant opens holding all three journaled statements.
func TestApplyPanicStopsTheTenant(t *testing.T) {
	root := t.TempDir()
	m := obs.New()
	var armed atomic.Bool
	armed.Store(true)
	var hb *holdBackend
	cfg := RegistryConfig{
		Shard:        Config{Metrics: m},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New(), Engine: []core.Option{core.WithTracer(replacePanics(&armed))}},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
	}
	cfg.wrapBackend = func(name string, b Backend) Backend {
		if name != DefaultTenant {
			return b
		}
		hb = &holdBackend{Backend: b, at: make(chan struct{}), release: make(chan struct{})}
		return hb
	}
	reg, base, shutdown := openRegistry(t, cfg)
	sh, err := reg.Create(DefaultTenant, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("sibling", "", nil); err != nil {
		t.Fatal(err)
	}
	db := base + "/v1/db/" + DefaultTenant

	// A pilot holds the writer while the run queues behind it; the run is
	// held at the engine boundary too, once the pilot's epoch is out.
	srcs := []string{
		`insert <pilot/> into /site`,
		`insert <person id="ps1"><name>Before</name></person> into /site/people`,
		`replace /site/people/person/name with <name>Renamed</name>`,
		`insert <note>after</note> into /site/categories`,
	}
	var waits []func() (*core.Report, uint64, error)
	enqueue := func(src string) {
		wait, err := sh.applyAsync(context.Background(), mustStatement(t, src))
		if err != nil {
			t.Fatalf("enqueue %s: %v", src, err)
		}
		waits = append(waits, wait)
	}
	enqueue(srcs[0])
	<-hb.at
	for _, src := range srcs[1:] {
		enqueue(src)
	}
	hb.release <- struct{}{}
	<-hb.at
	if _, _, err := waits[0](); err != nil {
		t.Fatalf("pilot: %v", err)
	}
	// A healthy leader's epoch covers its log once a statement is acked.
	pilotLSN, last := sh.LSNs()
	if pilotLSN == 0 || pilotLSN != last {
		t.Fatalf("after the pilot's ack: applied LSN %d, last %d, want both the log tip", pilotLSN, last)
	}
	before := servedBodies(t, db, sh)
	hb.release <- struct{}{}
	for i, wait := range waits[1:] {
		if rep, _, err := wait(); !errors.Is(err, ErrTenantStopped) || rep != nil {
			t.Fatalf("statement %d of the run: rep=%v err=%v, want %v", i, rep, err, ErrTenantStopped)
		}
	}

	after := servedBodies(t, db, sh)
	for i := range before {
		if !bytes.Equal(after[i], before[i]) {
			t.Fatalf("served body %d changed across the stopped run:\n got %s\nwant %s", i, after[i], before[i])
		}
	}
	// The log holds the run, the served epoch only the pilot.
	var rs ReplStatusResponse
	if code := getJSON(t, db+"/repl/status", &rs); code != http.StatusOK || rs.AppliedLSN != pilotLSN || rs.LastLSN != pilotLSN+3 {
		t.Fatalf("/repl/status after the stop: %d applied_lsn %d last_lsn %d, want the pilot's %d and the tip %d",
			code, rs.AppliedLSN, rs.LastLSN, pilotLSN, pilotLSN+3)
	}
	var list ListDBsResponse
	if code := getJSON(t, base+"/v1/db", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/db: %d", code)
	}
	for _, st := range list.Databases {
		if st.Name == DefaultTenant && (st.AppliedLSN != pilotLSN || st.LastLSN != pilotLSN+3) {
			t.Fatalf("/v1/db after the stop: applied_lsn %d last_lsn %d, want %d and %d", st.AppliedLSN, st.LastLSN, pilotLSN, pilotLSN+3)
		}
	}
	resp, body := postJSON(t, db+"/update", UpdateRequest{Statement: srcs[1]})
	requireStopped(t, "write after the stop", resp.StatusCode, body, "injected replace failure")
	if code, body := get(t, db+"/xpath?q=/site/people/person/name"); code != http.StatusOK {
		t.Fatalf("read after the stop: %d %s", code, body)
	}
	if cause := healthStopped(t, base)[DefaultTenant]; !strings.Contains(cause, "injected replace failure") {
		t.Fatalf("healthz names %s stopped with %q", DefaultTenant, cause)
	}
	if got := m.CounterValue("server.apply.panics"); got != 1 {
		t.Fatalf("server.apply.panics = %d, want 1", got)
	}
	if resp, body := postUpdate(t, base+"/v1/db/sibling", srcs[1]); resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling write beside a stopped tenant: %d %+v", resp.StatusCode, body)
	}
	shutdown()

	// Reopened with the panic still injected: replay meets it again.
	reg, base, shutdown = openRegistry(t, cfg)
	db = base + "/v1/db/" + DefaultTenant
	var rp *wal.ReplayPanicError
	if _, err := reg.Get(DefaultTenant); !errors.Is(err, ErrTenantStopped) || !errors.As(err, &rp) {
		t.Fatalf("Get(%s) = %v, want a stopped tenant holding a *wal.ReplayPanicError", DefaultTenant, err)
	}
	const named = "replay panicked"
	for _, path := range []string{"/views", "/views/Q1", "/xpath?q=/site", "/metrics", "/repl/status"} {
		code, body := get(t, db+path)
		requireStopped(t, "GET "+path, code, body, named)
	}
	resp, body = postJSON(t, db+"/update", UpdateRequest{Statement: srcs[1]})
	requireStopped(t, "POST update", resp.StatusCode, body, named)
	resp, body = deleteReq(t, db)
	requireStopped(t, "DELETE", resp.StatusCode, body, named)
	resp, body = postJSON(t, base+"/v1/db", CreateDBRequest{Name: DefaultTenant})
	requireStopped(t, "re-create", resp.StatusCode, body, named)
	if cause := healthStopped(t, base)[DefaultTenant]; !strings.Contains(cause, named) {
		t.Fatalf("healthz names %s stopped with %q", DefaultTenant, cause)
	}
	if code, body := get(t, base+"/v1/db/sibling/views/Q1"); code != http.StatusOK {
		t.Fatalf("sibling read after the reopen: %d %s", code, body)
	}
	if resp, _ := postUpdate(t, base+"/v1/db/sibling", srcs[3]); resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling write after the reopen: %d", resp.StatusCode)
	}
	shutdown()

	// Without the panic the log decides: all three statements landed.
	armed.Store(false)
	reg, _, shutdown = openRegistry(t, cfg)
	if sh, err = reg.Get(DefaultTenant); err != nil {
		t.Fatal(err)
	}
	shutdown()
	served := sh.Epoch()
	requireServedIsRecovered(t, served, wal.TenantDir(root, DefaultTenant))
	twin := newTestEngine(t)
	for _, src := range srcs {
		if _, err := twin.ApplyStatement(mustStatement(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	requireServedIs(t, "twin's", served, twin)
}

// halfInsertBackend makes the next apply land half a statement and panic:
// it inserts a two-tree forest under /site/people whose second tree is nil,
// so ApplyInsertions blows up after the first tree is in the document —
// before the statement is journaled.
type halfInsertBackend struct {
	Backend
	armed bool
}

func (b *halfInsertBackend) ApplyRun(stmts []*update.Statement, dst []pulopt.Result) pulopt.Run {
	if b.armed {
		b.armed = false
		doc := b.Engine().Doc
		people := doc.Labeled("people")[0]
		half := xmltree.NewNode(xmltree.Element, "person", "")
		_, _, _ = doc.ApplyInsertions([]xmltree.Insertion{{Target: people, Trees: []*xmltree.Node{half, nil}}})
	}
	return b.Backend.ApplyRun(stmts, dst)
}

// TestHalfMutationPanicServesThePreRunEpoch: a panic that escapes
// mid-mutation leaves the writer's document holding part of a statement
// and its label index unpatched. None of it is served — the epoch before
// the run is, byte for byte — and none of it was journaled, so the
// reopened tenant holds none of it either.
func TestHalfMutationPanicServesThePreRunEpoch(t *testing.T) {
	root := t.TempDir()
	cfg := RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
		wrapBackend: func(_ string, b Backend) Backend {
			return &halfInsertBackend{Backend: b, armed: true}
		},
	}
	reg, base, shutdown := openRegistry(t, cfg)
	sh, err := reg.Create(DefaultTenant, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	db := base + "/v1/db/" + DefaultTenant
	before := servedBodies(t, db, sh)
	resp, body := postJSON(t, db+"/update", UpdateRequest{Statement: `insert <person id="pp"><name>Boom</name></person> into /site/people`})
	requireStopped(t, "the half statement", resp.StatusCode, body, "apply panicked")
	after := servedBodies(t, db, sh)
	for i := range before {
		if !bytes.Equal(after[i], before[i]) {
			t.Fatalf("served body %d changed across the half statement", i)
		}
	}
	shutdown()

	cfg.wrapBackend = nil
	reg, _, shutdown = openRegistry(t, cfg)
	if sh, err = reg.Get(DefaultTenant); err != nil {
		t.Fatal(err)
	}
	shutdown()
	requireServedIs(t, "fresh", sh.Epoch(), newTestEngine(t))
}

// TestCorruptTenantStopsAlone: a tenant every checkpoint of which is
// corrupt cannot be opened; the registry keeps it stopped, by name, and
// opens and serves the others.
func TestCorruptTenantStopsAlone(t *testing.T) {
	root := t.TempDir()
	cfg := RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1, 0),
		DefaultViews: testViewSpecs(),
	}
	reg, _, shutdown := openRegistry(t, cfg)
	for _, name := range []string{"alpha", "beta"} {
		if _, err := reg.Create(name, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()
	ckpts, err := filepath.Glob(filepath.Join(wal.TenantDir(root, "alpha"), "checkpoint-*", "doc.xml"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint to corrupt (%v)", err)
	}
	for _, doc := range ckpts {
		if err := os.WriteFile(doc, []byte("<site/>"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg, base, _ := openRegistry(t, cfg)
	const named = "every checkpoint is corrupt"
	code, body := get(t, base+"/v1/db/alpha/views")
	requireStopped(t, "GET alpha", code, body, named)
	if cause := healthStopped(t, base)["alpha"]; !strings.Contains(cause, named) {
		t.Fatalf("healthz names alpha stopped with %q", cause)
	}
	if got := strings.Join(reg.Names(), " "); got != "beta" {
		t.Fatalf("routed tenants %q, want beta", got)
	}
	if resp, _ := postUpdate(t, base+"/v1/db/beta", `insert <note>n</note> into /site/categories`); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta write beside a corrupt tenant: %d", resp.StatusCode)
	}
}
