package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"xivm/internal/obs"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

// wantTooLarge asserts the typed 413 envelope.
func wantTooLarge(t *testing.T, status int, body io.Reader, tenant string) {
	t.Helper()
	var er ErrorResponse
	if err := json.NewDecoder(body).Decode(&er); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	if status != http.StatusRequestEntityTooLarge || er.Error.Code != CodeBodyTooLarge || er.Error.Tenant != tenant {
		t.Fatalf("status %d, envelope %+v; want 413 %s for tenant %q", status, er.Error, CodeBodyTooLarge, tenant)
	}
}

// updateBody is a well-formed update request of exactly n bytes: the
// padding is inside the inserted text, so the JSON value is the whole body.
func updateBody(n int) string {
	const head, tail = `{"statement":"insert <xnote>`, `</xnote> into /site/people"}`
	return head + strings.Repeat("a", n-len(head)-len(tail)) + tail
}

// TestUpdateBodyLimit: a statement of exactly the ceiling is applied; one
// byte more is refused with the typed envelope — whether the request says
// so up front or streams past the ceiling unannounced — and the tenant is
// as it was.
func TestUpdateBodyLimit(t *testing.T) {
	reg, ts := newTestRegistry(t, Config{}, nil)
	url := ts.URL + "/v1/db/" + DefaultTenant + "/update"
	sh, err := reg.Get(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(url, "application/json", strings.NewReader(updateBody(maxUpdateBody)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a body of exactly %d bytes: status %d, want 200", maxUpdateBody, resp.StatusCode)
	}
	before := sh.Epoch()

	over := updateBody(maxUpdateBody + 1)
	for name, body := range map[string]io.Reader{
		"declared": strings.NewReader(over),                 // Content-Length says so
		"streamed": io.MultiReader(strings.NewReader(over)), // chunked: only reading finds out
	} {
		resp, err := http.Post(url, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantTooLarge(t, resp.StatusCode, resp.Body, DefaultTenant)
		resp.Body.Close()
	}
	if after := sh.Epoch(); after.Version != before.Version || after.DocXML() != before.DocXML() {
		t.Fatalf("a refused body moved the tenant from version %d to %d", before.Version, after.Version)
	}
}

// TestCreateBodyLimit: a create request declaring one byte over the ceiling
// is refused before any of it is read — no tenant, no tenant directory — and
// the ceiling itself is admitted. (Sending 256 MiB through the decoder is
// not a tier-1 test; decodeBody's boundary is TestUpdateBodyLimit's, and
// below.)
func TestCreateBodyLimit(t *testing.T) {
	root := t.TempDir()
	reg, err := NewRegistry(RegistryConfig{
		Shard:        Config{Metrics: obs.New()},
		DataDir:      root,
		WAL:          wal.Options{Metrics: obs.New()},
		DefaultDoc:   xmark.GenerateSmall(1),
		DefaultViews: testViewSpecs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	const small = `{"name":"big"}`
	post := func(declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/db", strings.NewReader(small))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, req)
		return rec
	}

	rec := post(maxCreateBody + 1)
	wantTooLarge(t, rec.Code, rec.Body, "")
	if _, err := reg.Get("big"); err == nil {
		t.Fatal("a refused create left a tenant behind")
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Fatalf("a refused create left %d entries under the tenant root (%v)", len(entries), err)
	}

	if rec := post(maxCreateBody); rec.Code != http.StatusCreated {
		t.Fatalf("a create declaring exactly the ceiling: status %d, want 201", rec.Code)
	}
}

// TestDecodeBodyBoundary pins decodeBody at a ceiling small enough to walk:
// at it, one over it declared, one over it streamed, and malformed.
func TestDecodeBodyBoundary(t *testing.T) {
	const limit = 64
	body := func(n int) string { return fmt.Sprintf(`{"name":%q}`, strings.Repeat("n", n-len(`{"name":""}`))) }
	for _, tc := range []struct {
		name     string
		body     string
		declared bool
		status   int
		code     string
	}{
		{"at the limit", body(limit), true, 0, ""},
		{"one over, declared", body(limit + 1), true, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"one over, streamed", body(limit + 1), false, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"malformed", `{"name":`, true, http.StatusBadRequest, CodeBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		if !tc.declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		var cr CreateDBRequest
		ok := decodeBody(rec, req, limit, "t", &cr)
		if ok != (tc.status == 0) {
			t.Fatalf("%s: decodeBody = %v", tc.name, ok)
		}
		if ok {
			if len(cr.Name) != limit-len(`{"name":""}`) {
				t.Fatalf("%s: decoded a name of %d bytes", tc.name, len(cr.Name))
			}
			continue
		}
		var er ErrorResponse
		if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Code != tc.status || er.Error.Code != tc.code || er.Error.Tenant != "t" {
			t.Fatalf("%s: status %d, envelope %+v", tc.name, rec.Code, er.Error)
		}
	}
}
