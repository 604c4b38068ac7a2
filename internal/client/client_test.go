package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/client"
	"xivm/internal/pattern"
	"xivm/internal/server"
	"xivm/internal/xmark"
)

// TestRetryOn429 verifies the client's backpressure contract: 429s are
// retried honoring Retry-After, everything else surfaces at once, and
// disabling retries surfaces the 429 as a typed APIError. (The cap and the
// jittered schedule are TestBackoffDelay*'s.)
func TestRetryOn429(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n := hits.Add(1); n <= 2 {
			if n == 1 {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error": {"code": "queue_full", "message": "apply queue full", "tenant": "hot"}}`)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, `{"tenant": "hot", "version": 7, "targets": 1, "views": []}`)
	}))
	defer ts.Close()

	// The first 429 asks for 1s, the second for nothing: the client's own
	// backoff waits at most 10ms then 20ms, so a total under 1s means the
	// header was ignored.
	c := client.New(ts.URL)
	t0 := time.Now()
	ur, err := c.DB("hot").Update(context.Background(), `delete /site/x`)
	if err != nil {
		t.Fatalf("update after retries: %v", err)
	}
	if ur.Version != 7 || hits.Load() != 3 {
		t.Fatalf("version=%d hits=%d, want 7 after 3 attempts", ur.Version, hits.Load())
	}
	if waited := time.Since(t0); waited < time.Second {
		t.Fatalf("retries waited only %v, want the 1s Retry-After pause", waited)
	}

	hits.Store(0)
	noRetry := client.New(ts.URL, client.WithRetries(0))
	_, err = noRetry.DB("hot").Update(context.Background(), `delete /site/x`)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("retries disabled: err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != server.CodeQueueFull || apiErr.Tenant != "hot" || !apiErr.IsRetryable() {
		t.Fatalf("APIError = %+v, want retryable 429 queue_full for hot", apiErr)
	}
	if hits.Load() != 1 {
		t.Fatalf("retries disabled but server saw %d requests", hits.Load())
	}
}

// TestErrorEnvelopeDecoding covers both error shapes: the server's uniform
// envelope and a non-envelope body (a proxy error, a panic page).
func TestErrorEnvelopeDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/db/ghost/views/Q1":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"error": {"code": "no_such_db", "message": "no such database: ghost", "tenant": "ghost"}}`)
		default:
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintf(w, "upstream exploded")
		}
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	_, err := c.DB("ghost").View(context.Background(), "Q1")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != 404 || apiErr.Code != server.CodeNoSuchDB || apiErr.Tenant != "ghost" || apiErr.IsRetryable() {
		t.Fatalf("APIError = %+v, want non-retryable 404 no_such_db for ghost", apiErr)
	}

	_, err = c.ListDBs(context.Background())
	if !errors.As(err, &apiErr) {
		t.Fatalf("non-envelope err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != server.CodeInternal || apiErr.Message != "upstream exploded" {
		t.Fatalf("non-envelope APIError = %+v, want 502 internal with the raw body", apiErr)
	}
}

// TestDecodeSizedAndStreamedBodies: a 2xx body decodes the same whether the
// server declared its length (read whole into one buffer of that size) or
// streamed it chunked, and a body shorter than its declared length is an
// error, not a partial response.
func TestDecodeSizedAndStreamedBodies(t *testing.T) {
	body := `{"tenant":"t","version":3,"query":"//a","matches":[{"id":"a1","label":"a","value":"` +
		strings.Repeat("x", 8<<10) + `"}]}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("q") {
		case "sized":
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		case "short":
			w.Header().Set("Content-Length", fmt.Sprint(len(body)+1))
		default:
			w.(http.Flusher).Flush() // commits the header: chunked from here
		}
		fmt.Fprint(w, body)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	for _, mode := range []string{"sized", "chunked"} {
		xr, err := c.DB("t").XPath(context.Background(), mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if xr.Version != 3 || len(xr.Matches) != 1 || len(xr.Matches[0].Value) != 8<<10 {
			t.Fatalf("%s: decoded %+v", mode, xr)
		}
	}
	if _, err := c.DB("t").XPath(context.Background(), "short"); err == nil {
		t.Fatal("a body shorter than its Content-Length decoded without error")
	}
}

// TestMultiTenantSmoke is the end-to-end acceptance check: 8 tenants
// created through the typed client against a real registry, rounds of
// updates sent to every tenant at once so every tenant's state diverges,
// then per-tenant verification — acked versions are readable
// (read-your-writes), the served view equals, entry by entry, a fresh
// recomputation of the pattern over that tenant's document, and no tenant
// sees another's writes.
func TestMultiTenantSmoke(t *testing.T) {
	const tenants = 8
	reg, err := server.NewRegistry(server.RegistryConfig{
		DefaultDoc: xmark.GenerateSmall(1, 0),
		DefaultViews: []server.ViewSpec{
			{Name: "Q1", Pattern: xmark.View("Q1").String()},
			{Name: "Q2", Pattern: xmark.View("Q2").String()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reg.Shutdown(ctx)
	}()

	ctx := context.Background()
	c := client.New(ts.URL)
	names := make([]string, 0, tenants)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		cr, err := c.CreateDB(ctx, client.CreateDB{Name: name})
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if cr.Tenant != name || len(cr.Views) != 2 {
			t.Fatalf("create %s response = %+v", name, cr)
		}
		names = append(names, name)
	}
	dbs, err := c.ListDBs(ctx)
	if err != nil || len(dbs) != tenants {
		t.Fatalf("list = %d dbs, err %v, want %d", len(dbs), err, tenants)
	}

	// Each round sends one update to every tenant still in it, all at
	// once: tenant i receives i+1 extra persons, so every tenant's correct
	// state is distinct.
	acked := make([]uint64, tenants)
	for round := 0; round < tenants; round++ {
		var wg sync.WaitGroup
		for i := round; i < tenants; i++ {
			name := names[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				stmt := fmt.Sprintf(`insert <person id="smoke-%s-%d"><name>Smoke %s %d</name></person> into /site/people`, name, round, name, round)
				ur, err := c.DB(name).Update(ctx, stmt)
				if err != nil {
					t.Errorf("%s round %d: %v", name, round, err)
					return
				}
				if ur.Tenant != name {
					t.Errorf("%s ack stamped tenant %q", name, ur.Tenant)
				}
				acked[i] = ur.Version
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}

	for i, name := range names {
		vr, err := c.DB(name).View(ctx, "Q1")
		if err != nil {
			t.Fatalf("%s view: %v", name, err)
		}
		if vr.Tenant != name {
			t.Fatalf("%s view stamped tenant %q", name, vr.Tenant)
		}
		if vr.Version < acked[i] {
			t.Fatalf("%s: read version %d < last acked %d", name, vr.Version, acked[i])
		}
		// The served rows must equal, entry by entry, a fresh
		// recomputation of the pattern over this tenant's document at the
		// version served.
		sh, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		snap := sh.Epoch()
		if snap.Version != vr.Version {
			t.Fatalf("%s: served version %d, registry epoch %d", name, vr.Version, snap.Version)
		}
		p := snap.View("Q1").Pattern
		fresh := wireRows(p, algebra.Materialize(snap.Doc(), p))
		if len(vr.Rows) != len(fresh) {
			t.Fatalf("%s: served %d Q1 rows, fresh recomputation %d", name, len(vr.Rows), len(fresh))
		}
		for r, want := range fresh {
			got := vr.Rows[r]
			if got.Count != want.Count || !slices.Equal(got.Entries, want.Entries) {
				t.Fatalf("%s: served Q1 row %d = %+v, fresh recomputation %+v", name, r, got, want)
			}
		}
		// Cross-tenant isolation: exactly this tenant's i+1 smoke inserts
		// are present, and nobody else's.
		xr, err := c.DB(name).XPath(ctx, "/site/people/person/name")
		if err != nil {
			t.Fatal(err)
		}
		mine, foreign := 0, 0
		for _, m := range xr.Matches {
			if strings.HasPrefix(m.Value, "Smoke ") {
				if strings.HasPrefix(m.Value, "Smoke "+name+" ") {
					mine++
				} else {
					foreign++
				}
			}
		}
		if mine != i+1 {
			t.Fatalf("%s: sees %d of its own smoke inserts, want %d", name, mine, i+1)
		}
		if foreign != 0 {
			t.Fatalf("%s: sees %d foreign smoke inserts", name, foreign)
		}
	}

	// Drop half the tenants; the survivors keep serving.
	for i := 0; i < tenants; i += 2 {
		if err := c.DropDB(ctx, names[i]); err != nil {
			t.Fatalf("drop %s: %v", names[i], err)
		}
	}
	dbs, err = c.ListDBs(ctx)
	if err != nil || len(dbs) != tenants/2 {
		t.Fatalf("list after drops = %d dbs, err %v, want %d", len(dbs), err, tenants/2)
	}
	if _, err := c.DB(names[1]).View(ctx, "Q1"); err != nil {
		t.Fatalf("survivor %s stopped serving: %v", names[1], err)
	}
	var apiErr *client.APIError
	if _, err := c.DB(names[0]).View(ctx, "Q1"); !errors.As(err, &apiErr) || apiErr.Code != server.CodeNoSuchDB {
		t.Fatalf("dropped %s still serving: %v", names[0], err)
	}
}

// wireRows encodes materialized rows of pattern p as the view endpoint
// does: per row its count, per entry the pattern node's label, the ID and
// the val and cont images.
func wireRows(p *pattern.Pattern, rows []algebra.Row) []server.RowJSON {
	shape := algebra.NewShape(p)
	out := make([]server.RowJSON, 0, len(rows))
	for _, row := range rows {
		rj := server.RowJSON{Count: row.Count}
		for i := range shape.Width() {
			e := shape.Entry(row, i)
			rj.Entries = append(rj.Entries, server.EntryJSON{Label: p.Nodes[e.NodeIdx].Label, ID: e.ID.String(), Val: e.Val, Cont: e.Cont})
		}
		out = append(out, rj)
	}
	return out
}
