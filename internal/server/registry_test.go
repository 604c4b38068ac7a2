package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func deleteReq(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestAdminPlaneLifecycle drives the full tenant lifecycle over HTTP:
// create (with the server's defaults and with an explicit document+views),
// list, duplicate create, invalid name, drop, and use-after-drop.
func TestAdminPlaneLifecycle(t *testing.T) {
	_, ts := newTestRegistry(t, Config{}, nil)

	// Create with an explicit document and views.
	resp, body := postJSON(t, ts.URL+"/v1/db", CreateDBRequest{
		Name:     "custom",
		Document: `<site><people><person id="p1"><name>Ada</name></person></people></site>`,
		Views:    []ViewSpec{{Name: "people", Pattern: xmark.View("Q1").String()}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create custom: status %d, body %s", resp.StatusCode, body)
	}
	var created CreateDBResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.Tenant != "custom" || len(created.Views) != 1 || created.Views[0].Rows != 1 {
		t.Fatalf("create response = %+v, want tenant custom with 1-row view", created)
	}

	// Create with server defaults (no document, no views).
	if resp, body := postJSON(t, ts.URL+"/v1/db", CreateDBRequest{Name: "defaults"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create defaults: status %d, body %s", resp.StatusCode, body)
	}

	// The new tenants serve immediately and independently.
	var vr ViewResponse
	if code := getJSON(t, ts.URL+"/v1/db/custom/views/people", &vr); code != http.StatusOK {
		t.Fatalf("custom view status %d", code)
	}
	if vr.Tenant != "custom" || len(vr.Rows) != 1 {
		t.Fatalf("custom view = tenant %q %d rows, want custom/1", vr.Tenant, len(vr.Rows))
	}

	// List shows all three, sorted, with stats.
	var list ListDBsResponse
	if code := getJSON(t, ts.URL+"/v1/db", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	names := make([]string, 0, len(list.Databases))
	for _, st := range list.Databases {
		names = append(names, st.Name)
		if st.QueueCap <= 0 {
			t.Fatalf("tenant %s stat missing queue cap: %+v", st.Name, st)
		}
	}
	if got := strings.Join(names, " "); got != "custom default defaults" {
		t.Fatalf("list = %q, want custom default defaults", got)
	}

	// Duplicate create: 409 db_exists.
	resp, body = postJSON(t, ts.URL+"/v1/db", CreateDBRequest{Name: "custom"})
	var er ErrorResponse
	if resp.StatusCode != http.StatusConflict || json.Unmarshal(body, &er) != nil || er.Error.Code != CodeDBExists {
		t.Fatalf("duplicate create: status %d, body %s, want 409 %s", resp.StatusCode, body, CodeDBExists)
	}

	// Invalid tenant name and invalid document: 400 bad_request.
	if resp, body := postJSON(t, ts.URL+"/v1/db", CreateDBRequest{Name: "no/slashes"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: status %d, body %s, want 400", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/db", CreateDBRequest{Name: "baddoc", Document: "<unclosed"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad document: status %d, body %s, want 400", resp.StatusCode, body)
	}

	// Drop, then use-after-drop and double-drop are 404 no_such_db.
	resp, body = deleteReq(t, ts.URL+"/v1/db/custom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop custom: status %d, body %s", resp.StatusCode, body)
	}
	var dropped DropDBResponse
	if err := json.Unmarshal(body, &dropped); err != nil || !dropped.Dropped {
		t.Fatalf("drop response = %s", body)
	}
	if code := getJSON(t, ts.URL+"/v1/db/custom/views", &er); code != http.StatusNotFound || er.Error.Code != CodeNoSuchDB {
		t.Fatalf("use-after-drop: status %d code %q, want 404 %s", code, er.Error.Code, CodeNoSuchDB)
	}
	if resp, _ := deleteReq(t, ts.URL+"/v1/db/custom"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: status %d, want 404", resp.StatusCode)
	}
}

// TestTenantIsolationUnderSaturation saturates one tenant's apply queue
// while another proceeds: the hot tenant must reject with 429 queue_full
// naming itself, and the cold tenant's updates and reads must all succeed
// — a hot tenant saturates only its own queue, never another's. Run under
// -race.
func TestTenantIsolationUnderSaturation(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	reg, ts := newTestRegistry(t, Config{QueueDepth: 2}, func(tenant string, b Backend) Backend {
		if tenant == "hot" {
			return &gateBackend{Backend: b, gate: gate, entered: entered}
		}
		return b
	})
	for _, name := range []string{"hot", "cold"} {
		if _, err := reg.Create(name, "", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Saturate hot: its writer blocks on the gate, so 1 in-flight + 2
	// queued submissions are absorbed; once the queue shows full, every
	// further submission deterministically bounces with 429 queue_full.
	st := `insert <person id="ph"><name>Hot</name></person> into /site/people`
	hot, err := reg.Get("hot")
	if err != nil {
		t.Fatal(err)
	}
	var absorbed sync.WaitGroup
	for i := 0; i < 3; i++ {
		absorbed.Add(1)
		go func() {
			defer absorbed.Done()
			hot.Apply(context.Background(), mustStatement(t, st))
		}()
		if i == 0 {
			<-entered // the writer holds the first: the next two queue, not bounce
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for hot.QueueLen() != hot.QueueCap() {
		if time.Now().After(deadline) {
			t.Fatalf("hot queue never filled (len %d, cap %d)", hot.QueueLen(), hot.QueueCap())
		}
		time.Sleep(time.Millisecond)
	}
	raw, _ := json.Marshal(UpdateRequest{Statement: st})
	resp, err := http.Post(ts.URL+"/v1/db/hot/update", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated hot update: status %d, want 429", resp.StatusCode)
	}
	if er.Error.Code != CodeQueueFull || er.Error.Tenant != "hot" {
		t.Fatalf("hot 429 envelope = %+v, want %s/hot", er.Error, CodeQueueFull)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("hot 429 without Retry-After")
	}

	// The cold tenant is untouched: every update succeeds and is readable,
	// and hot's reads (snapshot-isolated) still serve.
	for i := 0; i < 10; i++ {
		stmt := fmt.Sprintf(`insert <person id="pc%d"><name>Cold %d</name></person> into /site/people`, i, i)
		resp, ur := postUpdate(t, ts.URL+"/v1/db/cold", stmt)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold update %d: status %d while hot is saturated", i, resp.StatusCode)
		}
		if ur.Tenant != "cold" {
			t.Fatalf("cold update stamped tenant %q", ur.Tenant)
		}
	}
	var vr ViewsResponse
	if code := getJSON(t, ts.URL+"/v1/db/hot/views", &vr); code != http.StatusOK {
		t.Fatalf("hot reads blocked during saturation: status %d", code)
	}
	var cold ViewResponse
	getJSON(t, ts.URL+"/v1/db/cold/views/Q1", &cold)
	if cold.Tenant != "cold" {
		t.Fatalf("cold view stamped tenant %q", cold.Tenant)
	}

	// Hot's rejections are visible in its tenant counters, not cold's.
	var hotM, coldM TenantMetricsResponse
	getJSON(t, ts.URL+"/v1/db/hot/metrics", &hotM)
	getJSON(t, ts.URL+"/v1/db/cold/metrics", &coldM)
	if hotM.Rejected == 0 {
		t.Fatalf("hot rejected counter = %d, want > 0", hotM.Rejected)
	}
	if coldM.Rejected != 0 {
		t.Fatalf("cold rejected counter = %d, want 0", coldM.Rejected)
	}

	close(gate)
	absorbed.Wait()
}

// TestDurableRegistryRecovery exercises the durable lifecycle end to end:
// tenants created and updated through one registry survive into a second
// registry opened over the same tenant root with their exact view state
// (checked against a fresh recomputation), a dropped tenant stays dropped,
// and debris simulating kills mid-create (a directory without a
// checkpoint) and mid-drop (a tombstone) is cleaned up at open.
func TestDurableRegistryRecovery(t *testing.T) {
	root := t.TempDir()
	cfg := RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1),
		DefaultViews: testViewSpecs(),
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if _, err := reg.Create(name, "", nil); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	// Distinct update counts per tenant so recovered states are distinct.
	for i, name := range []string{"alpha", "beta", "gamma"} {
		sh, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			stmt := fmt.Sprintf(`insert <person id="p-%s-%d"><name>N %d</name></person> into /site/people`, name, j, j)
			if _, _, err := sh.Apply(context.Background(), mustStatement(t, stmt)); err != nil {
				t.Fatalf("%s apply: %v", name, err)
			}
		}
	}
	wantRows := make(map[string]int)
	for _, st := range reg.Stats() {
		wantRows[st.Name] = st.Rows
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := reg.Drop(ctx, "beta"); err != nil {
		t.Fatalf("drop beta: %v", err)
	}
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Simulate a create killed before its initial checkpoint and a drop
	// killed between rename and delete.
	if err := os.MkdirAll(filepath.Join(root, "partial", "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "partial", "wal", "000001.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".drop-oldone"), 0o755); err != nil {
		t.Fatal(err)
	}

	reg2, err := NewRegistry(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reg2.Shutdown(ctx)
	if got := strings.Join(reg2.Names(), " "); got != "alpha gamma" {
		t.Fatalf("recovered tenants = %q, want alpha gamma", got)
	}
	for _, name := range []string{"partial", ".drop-oldone"} {
		if _, err := os.Stat(filepath.Join(root, name)); !os.IsNotExist(err) {
			t.Fatalf("debris %s not cleaned at open (err=%v)", name, err)
		}
	}

	// Recovered views equal a fresh recomputation over the recovered doc,
	// and match the pre-restart row counts.
	for _, name := range []string{"alpha", "gamma"} {
		sh, err := reg2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		snap := sh.Epoch()
		if snap.Tenant != name {
			t.Fatalf("%s: recovered epoch stamped tenant %q", name, snap.Tenant)
		}
		rows := 0
		for i := range snap.Views {
			vs := &snap.Views[i]
			fresh := algebra.Materialize(snap.Doc(), vs.Pattern)
			if len(fresh) != vs.Rows.Len() {
				t.Fatalf("%s view %s: %d recovered rows, fresh recomputation %d", name, vs.Name, vs.Rows.Len(), len(fresh))
			}
			rows += vs.Rows.Len()
		}
		if rows != wantRows[name] {
			t.Fatalf("%s: %d rows after recovery, want %d", name, rows, wantRows[name])
		}
		// And the recovered tenant still accepts updates.
		if _, _, err := sh.Apply(context.Background(), mustStatement(t, `insert <person id="post"><name>Post Recovery</name></person> into /site/people`)); err != nil {
			t.Fatalf("%s post-recovery apply: %v", name, err)
		}
	}

	// Creating a new tenant and re-creating the dropped name both work.
	if _, err := reg2.Create("beta", "", nil); err != nil {
		t.Fatalf("re-create dropped beta: %v", err)
	}
}

// TestCreateConcurrentSameName races N concurrent Creates of one name:
// exactly one must win, the rest must see ErrTenantExists, and the
// registry must never route a half-built tenant.
func TestCreateConcurrentSameName(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{}, nil)
	const racers = 8
	var wg sync.WaitGroup
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := reg.Create("contested", "", nil)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	won, lost := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			won++
		case errors.Is(err, ErrTenantExists):
			lost++
		default:
			t.Fatalf("unexpected create error: %v", err)
		}
	}
	if won != 1 || lost != racers-1 {
		t.Fatalf("won=%d lost=%d, want 1/%d", won, lost, racers-1)
	}
	if _, err := reg.Get("contested"); err != nil {
		t.Fatalf("winner not routed: %v", err)
	}
}
