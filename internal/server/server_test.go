package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

func testViewSpecs() []ViewSpec {
	return []ViewSpec{
		{Name: "Q1", Pattern: xmark.View("Q1").String()},
		{Name: "Q2", Pattern: xmark.View("Q2").String()},
	}
}

func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	doc, err := xmltree.ParseString(xmark.GenerateSmall(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(doc, core.WithMetrics(obs.New()))
	for _, name := range []string{"Q1", "Q2"} {
		if _, err := eng.AddView(name, xmark.View(name)); err != nil {
			t.Fatalf("add view %s: %v", name, err)
		}
	}
	return eng
}

// DefaultTenant is the tenant every test registry starts with.
const DefaultTenant = "default"

// newTestRegistry builds an in-memory registry seeded with the XMark
// default document and views, the default tenant already created, over an
// httptest listener. wrap, when non-nil, intercepts every tenant's backend
// (the gating seam).
func newTestRegistry(t *testing.T, cfg Config, wrap func(string, Backend) Backend) (*Registry, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	reg, err := NewRegistry(RegistryConfig{
		Shard:        cfg,
		DefaultDoc:   xmark.GenerateSmall(1),
		DefaultViews: testViewSpecs(),
		wrapBackend:  wrap,
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

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// postUpdate sends one statement to dbURL/update, where dbURL is a
// data-plane prefix like ts.URL+"/v1/db/default".
func postUpdate(t *testing.T, dbURL, stmt string) (*http.Response, UpdateResponse) {
	t.Helper()
	body := strings.NewReader(fmt.Sprintf(`{"statement": %q}`, stmt))
	resp, err := http.Post(dbURL+"/update", "application/json", body)
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	defer resp.Body.Close()
	var ur UpdateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			t.Fatalf("decode update response: %v", err)
		}
	}
	return resp, ur
}

var healthProbes atomic.Int32

// TestHealthReportsTheLabelTable: /healthz gauges the process-wide label
// table (dewey.LabelStats). A read naming a label no document holds leaves
// label_codes as it was; an update inserting it adds its code.
func TestHealthReportsTheLabelTable(t *testing.T) {
	_, ts := newTestRegistry(t, Config{}, nil)
	db := ts.URL + "/v1/db/" + DefaultTenant
	health := func() HealthResponse {
		t.Helper()
		var h HealthResponse
		if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		return h
	}
	before := health()
	if codes, refused := dewey.LabelStats(); before.LabelCodes != codes || before.LabelRefused != refused || codes == 0 {
		t.Fatalf("healthz reports %d codes, %d refusals; the table %d, %d", before.LabelCodes, before.LabelRefused, codes, refused)
	}
	label := fmt.Sprintf("zz-healthz-probe-%d", healthProbes.Add(1)) // fresh under -count
	if code := getJSON(t, db+"/xpath?q=//"+label, nil); code != http.StatusOK {
		t.Fatalf("xpath status %d", code)
	}
	if h := health(); h.LabelCodes != before.LabelCodes {
		t.Fatalf("a read of //%s took label_codes from %d to %d", label, before.LabelCodes, h.LabelCodes)
	}
	if resp, _ := postUpdate(t, db, fmt.Sprintf("insert <%s/> into /site/people/person", label)); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if h := health(); h.LabelCodes != before.LabelCodes+1 || h.LabelRefused != before.LabelRefused {
		t.Fatalf("inserting <%s/> took label_codes from %d to %d, label_refused from %d to %d",
			label, before.LabelCodes, h.LabelCodes, before.LabelRefused, h.LabelRefused)
	}
}

func TestAPIQueryAndUpdate(t *testing.T) {
	_, ts := newTestRegistry(t, Config{}, nil)
	db := ts.URL + "/v1/db/" + DefaultTenant

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Tenants != 1 {
		t.Fatalf("health = %+v, want ok with 1 tenant", health)
	}

	var views ViewsResponse
	if code := getJSON(t, db+"/views", &views); code != http.StatusOK {
		t.Fatalf("views status %d", code)
	}
	if views.Tenant != DefaultTenant {
		t.Fatalf("views.Tenant = %q, want %q", views.Tenant, DefaultTenant)
	}
	if len(views.Views) != 2 {
		t.Fatalf("views = %d, want 2", len(views.Views))
	}
	var q1Before int
	for _, v := range views.Views {
		if v.Name == "Q1" {
			q1Before = v.Rows
		}
	}
	if q1Before == 0 {
		t.Fatal("Q1 empty before update")
	}

	var vr ViewResponse
	if code := getJSON(t, db+"/views/Q1", &vr); code != http.StatusOK {
		t.Fatalf("view Q1 status %d", code)
	}
	if vr.Tenant != DefaultTenant {
		t.Fatalf("view.Tenant = %q, want %q", vr.Tenant, DefaultTenant)
	}
	if len(vr.Rows) != q1Before {
		t.Fatalf("view rows %d != summary rows %d", len(vr.Rows), q1Before)
	}
	for _, row := range vr.Rows {
		for _, e := range row.Entries {
			if e.ID == "" || e.Label == "" {
				t.Fatalf("row entry missing id/label: %+v", e)
			}
		}
	}

	// An applied update must be readable at the acknowledged version
	// (read-your-writes after ack).
	resp, ur := postUpdate(t, db, `insert <person id="pz"><name>Zed New</name></person> into /site/people`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if ur.Targets != 1 {
		t.Fatalf("update targets = %d, want 1", ur.Targets)
	}
	if ur.Tenant != DefaultTenant {
		t.Fatalf("update.Tenant = %q, want %q", ur.Tenant, DefaultTenant)
	}
	var after ViewResponse
	getJSON(t, db+"/views/Q1", &after)
	if after.Version < ur.Version {
		t.Fatalf("read version %d < acked update version %d", after.Version, ur.Version)
	}
	if len(after.Rows) != q1Before+1 {
		t.Fatalf("Q1 rows after insert = %d, want %d", len(after.Rows), q1Before+1)
	}

	var xr XPathResponse
	if code := getJSON(t, db+"/xpath?q="+`/site/people/person/name`, &xr); code != http.StatusOK {
		t.Fatalf("xpath status %d", code)
	}
	if len(xr.Matches) != len(after.Rows) {
		t.Fatalf("xpath matches = %d, want %d (one name per Q1 row)", len(xr.Matches), len(after.Rows))
	}
	found := false
	for _, m := range xr.Matches {
		if m.Value == "Zed New" {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted person's name not visible through the xpath endpoint")
	}

	if code := getJSON(t, ts.URL+"/v1/metrics", nil); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var tm TenantMetricsResponse
	if code := getJSON(t, db+"/metrics", &tm); code != http.StatusOK {
		t.Fatalf("tenant metrics status %d", code)
	}
	if tm.Name != DefaultTenant || tm.Applied < 1 || tm.Epochs < 1 {
		t.Fatalf("tenant metrics = %+v, want default tenant with applied/epochs >= 1", tm)
	}
}

func TestAPIErrors(t *testing.T) {
	_, ts := newTestRegistry(t, Config{}, nil)
	db := ts.URL + "/v1/db/" + DefaultTenant

	var er ErrorResponse
	if code := getJSON(t, db+"/views/nope", &er); code != http.StatusNotFound {
		t.Fatalf("unknown view status %d, want 404", code)
	}
	if er.Error.Code != CodeNotFound || er.Error.Tenant != DefaultTenant {
		t.Fatalf("unknown view envelope = %+v, want code %s tenant %s", er.Error, CodeNotFound, DefaultTenant)
	}
	if code := getJSON(t, db+"/xpath", &er); code != http.StatusBadRequest {
		t.Fatalf("missing q status %d, want 400", code)
	}
	if er.Error.Code != CodeBadRequest {
		t.Fatalf("missing q envelope code = %q, want %s", er.Error.Code, CodeBadRequest)
	}
	if resp, _ := postUpdate(t, db, `mangle /site into chaos`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad statement status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(db+"/update", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp.StatusCode)
	}

	// Data-plane requests for a tenant that does not exist: 404 no_such_db,
	// with the envelope naming the tenant asked for.
	if code := getJSON(t, ts.URL+"/v1/db/ghost/views", &er); code != http.StatusNotFound {
		t.Fatalf("ghost tenant status %d, want 404", code)
	}
	if er.Error.Code != CodeNoSuchDB || er.Error.Tenant != "ghost" {
		t.Fatalf("ghost tenant envelope = %+v, want code %s tenant ghost", er.Error, CodeNoSuchDB)
	}
}

// gateBackend wraps an engine backend but blocks every ApplyCtx until
// released, so tests can hold the writer busy while probing queue
// behavior. entered, when set, hears of every apply that reaches the gate:
// a test that waits on it knows the writer has left the queue before it
// submits what must stay queued. panicNext makes the next apply panic
// instead.
type gateBackend struct {
	Backend
	gate      chan struct{}
	entered   chan struct{}
	panicNext bool
}

func (b *gateBackend) ApplyCtx(ctx context.Context, st *update.Statement) (*core.Report, error) {
	if b.entered != nil {
		select {
		case b.entered <- struct{}{}:
		default:
		}
	}
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if b.panicNext {
		b.panicNext = false
		panic("injected apply failure")
	}
	return b.Backend.ApplyCtx(ctx, st)
}

func mustStatement(t *testing.T, src string) *update.Statement {
	t.Helper()
	st, err := update.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

func TestQueueFullBackpressure(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	reg, ts := newTestRegistry(t, Config{QueueDepth: 1}, func(tenant string, b Backend) Backend {
		return &gateBackend{Backend: b, gate: gate, entered: entered}
	})
	db := ts.URL + "/v1/db/" + DefaultTenant
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}

	st := `insert <person id="pq"><name>Queued</name></person> into /site/people`
	// First submission occupies the writer (blocked on the gate); the
	// second fills the one-slot queue; the third must bounce with 429.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := sh.Apply(context.Background(), mustStatement(t, st))
			results <- err
		}()
		if i == 0 {
			<-entered // the writer holds the first: the second will queue, not bounce
		}
	}
	// Wait until the writer has dequeued the first request and the second
	// sits in the queue, so the third submission deterministically bounces.
	deadline := time.Now().Add(5 * time.Second)
	for sh.QueueLen() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postUpdate(t, db, st)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue update status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Reads must not be blocked by the stuck writer.
	var views ViewsResponse
	if code := getJSON(t, db+"/views", &views); code != http.StatusOK {
		t.Fatalf("views during writer stall: status %d", code)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued apply failed after release: %v", err)
		}
	}
}

func TestUpdateDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestRegistry(t, Config{RequestTimeout: 30 * time.Millisecond}, func(tenant string, b Backend) Backend {
		return &gateBackend{Backend: b, gate: gate}
	})

	st := `insert <person id="pd"><name>Late</name></person> into /site/people`
	resp, _ := postUpdate(t, ts.URL+"/v1/db/"+DefaultTenant, st)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline update status %d, want 504", resp.StatusCode)
	}
}

func TestApplyPanicKeepsServing(t *testing.T) {
	m := obs.New()
	_, ts := newTestRegistry(t, Config{Metrics: m}, func(tenant string, b Backend) Backend {
		return &gateBackend{Backend: b, panicNext: true}
	})
	db := ts.URL + "/v1/db/" + DefaultTenant

	st := `insert <person id="pp"><name>Boom</name></person> into /site/people`
	resp, _ := postUpdate(t, db, st)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panicked update status %d, want 422", resp.StatusCode)
	}
	if got := m.CounterValue("server.apply.panics"); got != 1 {
		t.Fatalf("server.apply.panics = %d, want 1", got)
	}

	// The writer loop survived: the same statement succeeds next time and
	// the engine's views are consistent.
	resp2, ur := postUpdate(t, db, st)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic update status %d, want 200", resp2.StatusCode)
	}
	var vr ViewResponse
	getJSON(t, db+"/views/Q1", &vr)
	if vr.Version < ur.Version {
		t.Fatalf("read version %d < acked version %d after panic recovery", vr.Version, ur.Version)
	}
}

// halfInsertBackend makes the next apply land half a statement and panic:
// it inserts a two-tree forest under /site/people whose second tree is nil,
// so ApplyInsertions blows up after the first tree is in the document.
type halfInsertBackend struct {
	Backend
	armed bool
}

func (b *halfInsertBackend) ApplyCtx(ctx context.Context, st *update.Statement) (*core.Report, error) {
	if b.armed {
		b.armed = false
		doc := b.Engine().Doc
		people := doc.Labeled("people")[0]
		half := xmltree.NewNode(xmltree.Element, "person", "")
		_, _, _ = doc.ApplyInsertions([]xmltree.Insertion{{Target: people, Trees: []*xmltree.Node{half, nil}}})
	}
	return b.Backend.ApplyCtx(ctx, st)
}

// TestApplyPanicResetsImage: a panic that escapes mid-mutation leaves the
// document holding part of a statement, and its label index unpatched: the
// interrupted mutator had copied /site and /site/people and never said so.
// The repair drops the index; the next epoch is whatever the tree holds —
// the writer's own tree, not a copy — and its index is rebuilt from it.
func TestApplyPanicResetsImage(t *testing.T) {
	m := obs.New()
	var backend *halfInsertBackend
	reg, ts := newTestRegistry(t, Config{Metrics: m}, func(tenant string, b Backend) Backend {
		backend = &halfInsertBackend{Backend: b, armed: true}
		return backend
	})
	db := ts.URL + "/v1/db/" + DefaultTenant
	st := `insert <person id="pp"><name>Boom</name></person> into /site/people`
	if resp, _ := postUpdate(t, db, st); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("panicked update status %d, want 422", resp.StatusCode)
	}
	copied := m.CounterValue("snapshot.doc.copied_nodes")
	if resp, _ := postUpdate(t, db, st); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic update status %d, want 200", resp.StatusCode)
	}

	// The writer is idle once the update is acknowledged.
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	live, img := backend.Engine().Doc, sh.Epoch().Doc()
	if got := len(live.Labeled("person")); got != len(img.Labeled("person")) || img.String() != live.String() {
		t.Fatalf("epoch after repair differs from the live tree (%d persons live):\n epoch %s\n  live %s", got, img, live)
	}
	for _, d := range []*xmltree.Document{live, img} {
		if people := d.Labeled("people"); len(people) != 1 || people[0] != d.NodeByID(people[0].ID) {
			t.Fatal("label index after repair still holds the node the interrupted mutator replaced")
		}
	}
	if string(img.EncodeOrds()) != string(live.EncodeOrds()) || img.Size() != live.Size() {
		t.Fatalf("epoch after repair: size %d, live %d, or ordinals differ", img.Size(), live.Size())
	}
	// The half statement's spine of two and its one tree, then the four
	// nodes of the statement that followed, under the same spine.
	if got := m.CounterValue("snapshot.doc.copied_nodes") - copied; got != 7 {
		t.Fatalf("epoch after repair copied %d nodes, want 7", got)
	}
}

// syncBackend records whether Sync ran, to assert the drain contract.
type syncBackend struct {
	EngineBackend
	synced chan struct{}
}

func (b *syncBackend) Sync() error { close(b.synced); return nil }

func TestShutdownDrains(t *testing.T) {
	b := &syncBackend{EngineBackend: EngineBackend{Eng: newTestEngine(t)}, synced: make(chan struct{})}
	s := NewShard("solo", b, nil, Config{Metrics: obs.New()})

	// Load a few updates, then shut down: all accepted work must complete
	// and the backend must be synced before Shutdown returns.
	type res struct {
		version uint64
		err     error
	}
	results := make(chan res, 3)
	for i := 0; i < 3; i++ {
		st := mustStatement(t, fmt.Sprintf(`insert <person id="pd%d"><name>Drain</name></person> into /site/people`, i))
		go func() {
			_, v, err := s.Apply(context.Background(), st)
			results <- res{v, err}
		}()
	}
	// Give the submissions a moment to enqueue (acceptance is what's being
	// tested; racing a submission against Shutdown legitimately yields
	// ErrShuttingDown, which would test nothing).
	deadline := time.Now().Add(5 * time.Second)
	for s.eng.Version() == 0 && time.Now().After(deadline) == false && s.QueueLen() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-b.synced:
	default:
		t.Fatal("Shutdown returned before backend.Sync")
	}
	accepted := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err == nil {
			accepted++
		} else if !errors.Is(r.err, ErrShuttingDown) {
			t.Fatalf("drained apply failed: %v", r.err)
		}
	}
	if accepted == 0 {
		t.Fatal("no update completed before drain")
	}

	// Post-shutdown submissions are rejected, reads still work, and the
	// published epoch carries the tenant stamp.
	if _, _, err := s.Apply(context.Background(), mustStatement(t, `delete /site/people/person`)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown apply error = %v, want ErrShuttingDown", err)
	}
	if snap := s.Epoch(); snap == nil || snap.Tenant != "solo" {
		t.Fatalf("epoch after shutdown = %+v, want tenant solo", s.Epoch())
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
