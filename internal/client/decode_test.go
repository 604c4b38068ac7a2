package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xivm/internal/client"
	"xivm/internal/server"
	"xivm/internal/xmark"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestLyingContentLength: a Content-Length is a claim, not an order to
// allocate. A terabyte declared over a ten-byte body is a decode error
// that names the short body, for the price of the reserve.
func TestLyingContentLength(t *testing.T) {
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    http.StatusOK,
			Header:        http.Header{"Content-Type": {"application/json"}},
			ContentLength: 1 << 40,
			Body:          io.NopCloser(strings.NewReader(`{"tenant":`)),
			Request:       req,
		}, nil
	})}
	db := client.New("http://xivm.invalid", client.WithHTTPClient(hc), client.WithRetries(0)).DB("t")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := db.XPath(context.Background(), "//a")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a decode error wrapping io.ErrUnexpectedEOF", err)
	}
	if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 2<<10 {
		t.Fatalf("a ten-byte body cost %d KB", kb)
	}
}

// TestDecodeAllocBudget holds a read, as a caller of client.DB pays for it,
// to a multiple of its body: on a 1 MB XMark tenant carrying the repo
// benchmark's seven views, view Q2 and each of the benchmark's eight hot
// queries (result-cache hits) cost at most 2.25 times their body per read —
// the server's handler, both ends of the loopback transport, the body
// buffer and the decoded response together. What this path measures is 1.6
// to 2.1; decoding the same bodies with encoding/json alone measured 3.0 to
// 4.1, which is a string per field and a doubling slice per row. The figure
// held to the budget is the cheapest of 32 reads, as in
// server.TestReadAllocBudget. Each answer is also checked against a plain
// encoding/json decode of the same bytes.
func TestDecodeAllocBudget(t *testing.T) {
	const tenant = "bench"
	reg, err := server.NewRegistry(server.RegistryConfig{
		DefaultDoc: xmark.Generate(xmark.Config{TargetBytes: 1 << 20, Seed: 2011}),
		DefaultViews: []server.ViewSpec{
			{Name: "Q1", Pattern: xmark.View("Q1").String()},
			{Name: "Q2", Pattern: xmark.View("Q2").String()},
			{Name: "R1", Pattern: `/site{ID}/people{ID}/person{ID}/name{ID,val}`},
			{Name: "R2", Pattern: `//open_auction{ID}//bidder{ID}`},
			{Name: "R3", Pattern: `//bidder{ID}//increase{ID,val}`},
			{Name: "R4", Pattern: `//open_auction{ID}//initial{ID,val}`},
			{Name: "R5", Pattern: `//open_auction{ID}//increase{ID,val}`},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(tenant, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	ctx := context.Background()
	db := client.New(ts.URL).DB(tenant)

	// body fetches path as bytes, for the size the budget is a multiple of
	// and for the plain decode.
	body := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/db/" + tenant + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return raw
	}
	const runs, budget = 32, 2.25
	hold := func(name string, raw []byte, read func() error) {
		t.Helper()
		cheapest := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			runtime.ReadMemStats(&before)
			err := read()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		}
		ratio := float64(cheapest) / float64(len(raw))
		t.Logf("%-52s %6.1f KB/read for a %6.1f KB body: %.2fx", name, float64(cheapest)/1024, float64(len(raw))/1024, ratio)
		if ratio > budget {
			t.Errorf("%s: a read allocates %.2f times its %d-byte body, budget %v", name, ratio, len(raw), budget)
		}
	}

	// The plain types have the wire types' fields and tags and none of
	// their methods: encoding/json decodes them by reflection.
	type plainView struct {
		Tenant  string           `json:"tenant"`
		Version uint64           `json:"version"`
		Name    string           `json:"name"`
		Rows    []server.RowJSON `json:"rows"`
	}
	type plainXPath struct {
		Tenant  string             `json:"tenant"`
		Version uint64             `json:"version"`
		Query   string             `json:"query"`
		Plan    string             `json:"plan,omitempty"`
		Matches []server.MatchJSON `json:"matches"`
	}

	raw := body("/views/Q2")
	var pv plainView
	if err := json.Unmarshal(raw, &pv); err != nil {
		t.Fatal(err)
	}
	if vr, err := db.View(ctx, "Q2"); err != nil || len(vr.Rows) == 0 || !reflect.DeepEqual(vr, server.ViewResponse(pv)) {
		t.Fatalf("view Q2 through the client (err %v) differs from encoding/json's decode of its body", err)
	}
	hold("view Q2", raw, func() error { _, err := db.View(ctx, "Q2"); return err })

	for _, q := range []string{ // benchmark/gen.go's hotCorpus
		`/site/people/person/name`,
		`//bidder//increase`,
		`//open_auction//bidder//increase`,
		`//open_auction[bidder]//initial`,
		`//open_auction//initial`,
		`/site/open_auctions/open_auction/bidder/increase`,
		`//person[profile][homepage]/name`,
		`//open_auction[reserve]//initial`,
	} {
		raw := body("/xpath?q=" + url.QueryEscape(q))
		var px plainXPath
		if err := json.Unmarshal(raw, &px); err != nil {
			t.Fatal(err)
		}
		if xr, err := db.XPath(ctx, q); err != nil || len(xr.Matches) == 0 || !reflect.DeepEqual(xr, server.XPathResponse(px)) {
			t.Fatalf("%s through the client (err %v) differs from encoding/json's decode of its body", q, err)
		}
		hold(q, raw, func() error { _, err := db.XPath(ctx, q); return err })
	}
}
