package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// libDecode is the oracle: what encoding/json makes of data for the
// method-less alias of T, into a zero T.
func libDecode[T ViewResponse | XPathResponse](data []byte) (T, error) {
	var out T
	var err error
	switch p := any(&out).(type) {
	case *ViewResponse:
		err = json.Unmarshal(data, (*viewResponseWire)(p))
	case *XPathResponse:
		err = json.Unmarshal(data, (*xpathResponseWire)(p))
	}
	return out, err
}

// fastDecode runs decode.go's scanner alone, into a zero T.
func fastDecode[T ViewResponse | XPathResponse](body string) (T, bool) {
	var out T
	var ok bool
	switch p := any(&out).(type) {
	case *ViewResponse:
		ok = p.decode(body)
	case *XPathResponse:
		ok = p.decode(body)
	}
	return out, ok
}

// checkRoundTrip holds the decoder to a body the encoder wrote: with and
// without the trailing newline it is decoded without declining, to what
// encoding/json makes of it — which is the struct it was written from
// whenever no string of that struct had invalid UTF-8 for the encoder to
// replace.
func checkRoundTrip[T ViewResponse | XPathResponse](t *testing.T, body []byte, from T, valid bool) {
	t.Helper()
	want, err := libDecode[T](body)
	if err != nil {
		t.Fatalf("encoding/json rejects the encoder's body %q: %v", body, err)
	}
	if valid && !reflect.DeepEqual(want, from) {
		t.Fatalf("body %q\ndecodes to %+v\nwritten from %+v", body, want, from)
	}
	for _, b := range []string{string(body), strings.TrimSuffix(string(body), "\n")} {
		got, ok := fastDecode[T](b)
		if !ok {
			t.Fatalf("decoder declines the encoder's body %q", b)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q\n got %+v\nwant %+v", b, got, want)
		}
	}
}

// agree holds every way into the decoder to encoding/json on arbitrary
// bytes: the scanner either declines or answers what the library answers
// without error, and through json.Unmarshal — scanner or fallback — value
// and error-ness are the library's.
func agree[T ViewResponse | XPathResponse](t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := libDecode[T](data)
	if got, ok := fastDecode[T](string(data)); ok && (wantErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("%q\nscanner   %+v\nlibrary   %+v (err %v)", data, got, want, wantErr)
	}
	var got T
	var err error
	declining(func() { err = json.Unmarshal(data, &got) })
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q\nUnmarshal %+v (err %v)\nlibrary   %+v (err %v)", data, got, err, want, wantErr)
	}
}

// FuzzDecodeMatchesEncodingJSON is the decoder's oracle on bytes nobody
// vouches for. The seeds are bodies of the grammar, which mutation keeps
// near it, and one body per reason to decline.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","version":7,"name":"Q1","rows":[{"count":1,"entries":[{"label":"a","id":"a1","val":"x"},{"label":"b","id":"a1.b2","cont":"\u003cb\u003ey\u003c/b\u003e"}]},{"count":-2,"entries":[]}]}` + "\n"))
	f.Add([]byte(`{"tenant":"","version":0,"name":"","rows":[]}`))
	f.Add([]byte(`{"tenant":"t\ufffdn","version":18446744073709551615,"query":"//a[b=\"\u003c\"]","plan":"treewalk","matches":[{"id":"a1","label":"a","value":"\u0000\u001f\b\f\n\r\t\\\u2028 é"},{"id":"","label":"#text","value":""}]}` + "\n"))
	f.Add([]byte(`{"tenant":"t","version":3,"query":"q","matches":[]}`))
	for _, c := range declineCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree[ViewResponse](t, data)
		agree[XPathResponse](t, data)
	})
}

var declineCases = []struct {
	name, body string
	want       XPathResponse // the fallback's answer
	fails      bool          // the fallback's answer is an error
}{
	{name: "pretty-printed",
		body: "{\n  \"tenant\": \"t\",\n  \"version\": 3,\n  \"query\": \"q\",\n  \"matches\": [\n    {\"id\": \"a1\", \"label\": \"a\", \"value\": \"v\"}\n  ]\n}",
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q", Matches: []MatchJSON{{ID: "a1", Label: "a", Value: "v"}}}},
	{name: "reordered keys",
		body: `{"version":3,"tenant":"t","query":"q","matches":[{"label":"a","id":"a1","value":"v"}]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q", Matches: []MatchJSON{{ID: "a1", Label: "a", Value: "v"}}}},
	{name: "null array",
		body: `{"tenant":"t","version":3,"query":"q","matches":null}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q"}},
	{name: "surrogate pair",
		body: `{"tenant":"t","version":3,"query":"q","matches":[{"id":"a1","label":"a","value":"\ud83d\ude00"}]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q", Matches: []MatchJSON{{ID: "a1", Label: "a", Value: "😀"}}}},
	{name: "lone surrogate",
		body: `{"tenant":"t","version":3,"query":"q\ud83d","matches":[]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q�", Matches: []MatchJSON{}}},
	{name: "invalid UTF-8",
		body: "{\"tenant\":\"t\xffn\",\"version\":3,\"query\":\"q\",\"matches\":[]}",
		want: XPathResponse{Tenant: "t�n", Version: 3, Query: "q", Matches: []MatchJSON{}}},
	{name: "exponent", fails: true,
		body: `{"tenant":"t","version":1e3,"query":"q","matches":[]}`,
		want: XPathResponse{Tenant: "t", Query: "q", Matches: []MatchJSON{}}},
	{name: "leading zero", fails: true,
		body: `{"tenant":"t","version":03,"query":"q","matches":[]}`},
	{name: "version overflow", fails: true,
		body: `{"tenant":"t","version":18446744073709551616,"query":"q","matches":[]}`,
		want: XPathResponse{Tenant: "t", Query: "q", Matches: []MatchJSON{}}},
	{name: "control byte", fails: true,
		body: "{\"tenant\":\"t\tn\",\"version\":3,\"query\":\"q\",\"matches\":[]}"},
	{name: "solidus escape",
		body: `{"tenant":"t","version":3,"query":"a\/b","matches":[]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "a/b", Matches: []MatchJSON{}}},
	{name: "case-variant key",
		body: `{"Tenant":"t","version":3,"query":"q","matches":[]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q", Matches: []MatchJSON{}}},
	{name: "duplicate key",
		body: `{"tenant":"t","version":3,"query":"q","matches":[],"tenant":"u"}`,
		want: XPathResponse{Tenant: "u", Version: 3, Query: "q", Matches: []MatchJSON{}}},
	{name: "unknown key",
		body: `{"tenant":"t","version":3,"query":"q","took_ms":1,"matches":[]}`,
		want: XPathResponse{Tenant: "t", Version: 3, Query: "q", Matches: []MatchJSON{}}},
	{name: "missing bracket", fails: true,
		body: `{"tenant":"t","version":3,"query":"q","matches":[{"id":"a1","label":"a","value":"v"}}`},
	{name: "trailing garbage", fails: true,
		body: `{"tenant":"t","version":3,"query":"q","matches":[]}` + "\n}"},
	{name: "null", body: `null`},
}

// TestDecodeDeclines shows, one body per reason, what the decoder hands to
// encoding/json and what comes back: a declined body is still decoded, to
// the library's answer or the library's error.
func TestDecodeDeclines(t *testing.T) {
	for _, c := range declineCases {
		if _, ok := fastDecode[XPathResponse](c.body); ok {
			t.Errorf("%s: the scanner takes %q", c.name, c.body)
		}
		for _, unmarshal := range []func(*XPathResponse) error{
			func(x *XPathResponse) error { return json.Unmarshal([]byte(c.body), x) },
			func(x *XPathResponse) error { return x.UnmarshalString(c.body) },
		} {
			var got XPathResponse
			var err error
			declining(func() { err = unmarshal(&got) })
			if (err != nil) != c.fails || !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %q\n got %+v (err %v)\nwant %+v (error: %v)", c.name, c.body, got, err, c.want, c.fails)
			}
		}
	}

	// A destination that already holds matches: encoding/json decodes into
	// them, so a field the body leaves out keeps what was there.
	const body = `{"tenant":"t","version":3,"query":"q","matches":[{"id":"a1","label":"a","value":"v"}]}`
	held := XPathResponse{Plan: "kept", Matches: make([]MatchJSON, 0, 4)}
	if held.decode(body) {
		t.Error("the scanner decodes over a destination that holds a slice")
	}
	var err error
	declining(func() { err = json.Unmarshal([]byte(body), &held) })
	if want := (XPathResponse{Tenant: "t", Version: 3, Query: "q", Plan: "kept", Matches: []MatchJSON{{ID: "a1", Label: "a", Value: "v"}}}); err != nil || !reflect.DeepEqual(held, want) || cap(held.Matches) != 4 {
		t.Errorf("into held matches: %+v (err %v), want %+v in the slice it held", held, err, want)
	}
	// Without a slice the scanner takes it, and a plan the body leaves out
	// stays too.
	fresh := XPathResponse{Plan: "kept"}
	if err := json.Unmarshal([]byte(body), &fresh); err != nil || fresh.Plan != "kept" || len(fresh.Matches) != 1 {
		t.Errorf("into a fresh response: %+v (err %v)", fresh, err)
	}
}

// TestDecodedRowsDoNotShareSpareCapacity: the rows of a decoded view are
// windows on one entries array, so each is capped at its own end.
func TestDecodedRowsDoNotShareSpareCapacity(t *testing.T) {
	var vr ViewResponse
	if err := json.Unmarshal([]byte(`{"tenant":"t","version":1,"name":"V","rows":[{"count":1,"entries":[{"label":"a","id":"a1"}]},{"count":1,"entries":[{"label":"a","id":"a2"}]}]}`), &vr); err != nil {
		t.Fatal(err)
	}
	vr.Rows[0].Entries = append(vr.Rows[0].Entries, EntryJSON{Label: "x", ID: "x"})
	if got := vr.Rows[1].Entries[0].ID; got != "a2" {
		t.Fatalf("appending to row 0 rewrote row 1's entry to %q", got)
	}
}

// TestDecodeAllocatesItsResultOnce counts what the issue promises: a decode
// makes one slice per level and one arena, however many literals carry an
// escape and wherever the first one is — envelope included, which is
// scanned before the slices are made.
func TestDecodeAllocatesItsResultOnce(t *testing.T) {
	view := `{"tenant":"a&b","version":1,"name":"V","rows":[` +
		strings.Repeat(`{"count":1,"entries":[{"label":"a","id":"a1","val":"<"},{"label":"b","id":"a1.b1","cont":"<b>\"\\ </b>"}]},`, 99) +
		`{"count":1,"entries":[]}]}` + "\n"
	xpath := `{"tenant":"t","version":1,"query":"//a[b=\"<\"]","matches":[` +
		strings.Repeat(`{"id":"a1","label":"a","value":"x\ty"},`, 99) + `{"id":"a2","label":"a","value":"plain"}]}` + "\n"
	var vr ViewResponse
	var xr XPathResponse
	if n := testing.AllocsPerRun(10, func() { vr = ViewResponse{}; vr.decode(view) }); n != 3 || len(vr.Rows) != 100 {
		t.Errorf("a view decode of %d rows allocates %v times, want 3: rows, entries, arena", len(vr.Rows), n)
	}
	if n := testing.AllocsPerRun(10, func() { xr = XPathResponse{}; xr.decode(xpath) }); n != 2 || len(xr.Matches) != 100 {
		t.Errorf("an xpath decode of %d matches allocates %v times, want 2: matches, arena", len(xr.Matches), n)
	}
	checkRoundTrip(t, []byte(view), vr, true)
	checkRoundTrip(t, []byte(xpath), xr, true)
}
