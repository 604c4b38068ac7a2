package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"xivm/internal/obs"
)

// TestReadBodiesOverHTTP checks the read routes end to end on real data:
// every view and every corpus query — planned, walked, explained, and
// served again from the result cache — answers a body of the declared
// Content-Length that is exactly what encoding/json makes of the wire
// struct it decodes to; a query that cannot be evaluated answers the typed
// error envelope, not a cut-off 200. On the way in, every one of those
// bodies is decoded by decode.go's scanner, never by its fallback, to what
// encoding/json alone makes of the same bytes.
func TestReadBodiesOverHTTP(t *testing.T) {
	declined := decodeDeclined.Load()
	reg, _ := newRewriteRegistry(t, nil)
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/db/default" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}
	check := func(path string, into any) {
		t.Helper()
		status, h, body := get(path)
		if status != http.StatusOK || h.Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s: status %d, content type %q", path, status, h.Get("Content-Type"))
		}
		if h.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("GET %s: Content-Length %q for a %d-byte body", path, h.Get("Content-Length"), len(body))
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if want := encodeJSON(t, into); !bytes.Equal(body, want) {
			t.Fatalf("GET %s:\n got %s\nwant %s", path, body, want)
		}
		switch got := into.(type) {
		case *ViewResponse:
			checkAgainstLibrary(t, body, *got)
		case *XPathResponse:
			checkAgainstLibrary(t, body, *got)
		}
	}

	for _, v := range rewriteViewSpecs() {
		var vr ViewResponse
		check("/views/"+v.Name, &vr)
		if len(vr.Rows) == 0 {
			t.Fatalf("view %s is empty on the fixture", v.Name)
		}
	}
	for _, c := range rewriteCorpus {
		q := "/xpath?q=" + url.QueryEscape(c.query)
		for _, extra := range []string{"", "", "&rewrite=0", "&explain=1", "&explain=1&rewrite=0"} {
			check(q+extra, &XPathResponse{})
		}
	}

	status, h, body := get("/xpath?q=" + url.QueryEscape("/site["))
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || status != http.StatusBadRequest ||
		er.Error.Code != CodeBadRequest || h.Get("Content-Type") != "application/json" {
		t.Fatalf("malformed query: status %d, body %s (err %v)", status, body, err)
	}
	if n := decodeDeclined.Load() - declined; n != 0 {
		t.Fatalf("%d bodies the handlers wrote were declined by the decoder and fell back to encoding/json", n)
	}
}

// checkAgainstLibrary compares what json.Unmarshal made of a body through
// the type's UnmarshalJSON, and what a direct UnmarshalJSON call (no
// validation pass first) makes of it, with encoding/json's own decode.
func checkAgainstLibrary[T ViewResponse | XPathResponse, P interface {
	*T
	json.Unmarshaler
}](t *testing.T, body []byte, viaJSON T) {
	t.Helper()
	want, err := libDecode[T](body)
	if err != nil {
		t.Fatal(err)
	}
	var direct T
	if err := P(&direct).UnmarshalJSON(bytes.Clone(body)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaJSON, want) || !reflect.DeepEqual(direct, want) {
		t.Fatalf("body %s\njson.Unmarshal %+v\nUnmarshalJSON  %+v\nencoding/json  %+v", body, viaJSON, direct, want)
	}
}

// TestResultCacheKeysOnTheRawQuery pins the cache key: the query string as
// sent, not trimmed or normalised. The repo benchmark's rewrite class relies
// on it — it pads one query into hundreds of distinct strings so that the
// planner runs on every read, and its in-run gate fails a whole round if a
// padded read is served from the cache instead.
func TestResultCacheKeysOnTheRawQuery(t *testing.T) {
	m := obs.New()
	reg, sh := newRewriteRegistry(t, m)
	planned, cached := m.Counter("server.xpath.rewrite.hit"), m.Counter("server.xpath.rewrite.cache_hit")
	ask := func(q string) []MatchJSON {
		t.Helper()
		resp, err := reg.xpathResponse(sh, sh.Epoch(), q, true)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Matches
	}

	const q = `//open_auction//bidder//increase`
	want := ask(q)
	ask(q) // the second miss stores q's answer
	for i, padded := range []string{" " + q, q + " ", "  " + q + " "} {
		got := ask(padded)
		if planned.Value() != int64(i+3) || cached.Value() != 0 {
			t.Fatalf("%q: rewrite.hit=%d cache_hit=%d, want %d planned reads and no cache hit",
				padded, planned.Value(), cached.Value(), i+3)
		}
		if !equalMatchJSON(got, want) {
			t.Fatalf("%q answers differently from %q", padded, q)
		}
	}
	if ask(q); planned.Value() != 5 || cached.Value() != 1 {
		t.Fatalf("verbatim repeat: rewrite.hit=%d cache_hit=%d, want 5 and 1", planned.Value(), cached.Value())
	}
}
