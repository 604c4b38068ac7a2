package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// wireBody is every body type decode.go scans.
type wireBody interface {
	ViewResponse | XPathResponse | UpdateResponse | UpdateRequest | CreateDBRequest
}

// libDecode is the oracle: what encoding/json makes of data for the
// method-less alias of T, into a zero T.
func libDecode[T wireBody](data []byte) (T, error) {
	var out T
	var err error
	switch p := any(&out).(type) {
	case *ViewResponse:
		err = json.Unmarshal(data, (*viewResponseWire)(p))
	case *XPathResponse:
		err = json.Unmarshal(data, (*xpathResponseWire)(p))
	case *UpdateResponse:
		err = json.Unmarshal(data, (*updateResponseWire)(p))
	case *UpdateRequest:
		err = json.Unmarshal(data, (*updateRequestWire)(p))
	case *CreateDBRequest:
		err = json.Unmarshal(data, (*createDBRequestWire)(p))
	}
	return out, err
}

// fastDecode runs decode.go's scanner alone, into a zero T.
func fastDecode[T wireBody](body string) (T, bool) {
	var out T
	ok := any(&out).(interface{ decode(string) bool }).decode(body)
	return out, ok
}

// checkRoundTrip holds the decoder to a body the encoder wrote: with and
// without the trailing newline it is decoded without declining, to what
// encoding/json makes of it — which is the struct it was written from
// whenever no string of that struct had invalid UTF-8 for the encoder to
// replace.
func checkRoundTrip[T wireBody](t *testing.T, body []byte, from T, valid bool) {
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
		ownsItsStrings(t, got, b)
	}
}

// ownsItsStrings fails t if a string of v, empty ones included, points
// into body: the buffer a body was read into goes back to a pool once it
// is decoded, and a string that pointed into it would change under its
// holder at the next read.
func ownsItsStrings(t *testing.T, v any, body string) {
	t.Helper()
	if len(body) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	hi := lo + uintptr(len(body))
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v.String()))); lo <= p && p < hi {
				t.Fatalf("%s = %q points into the body %q", path, v.String(), body)
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(reflect.ValueOf(v), reflect.TypeOf(v).Name())
}

// agree holds every way into the decoder to encoding/json on arbitrary
// bytes: the scanner either declines or answers what the library answers
// without error, owning every string it decodes, and through
// json.Unmarshal — scanner or fallback — value and error-ness are the
// library's, and stay so once the bytes decoded from are overwritten.
func agree[T wireBody](t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := libDecode[T](data)
	body := string(data)
	if got, ok := fastDecode[T](body); ok {
		if wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q\nscanner   %+v\nlibrary   %+v (err %v)", data, got, want, wantErr)
		}
		ownsItsStrings(t, got, body)
	}
	buf := bytes.Clone(data)
	var got T
	var err error
	declining(func() { err = json.Unmarshal(buf, &got) })
	if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q\nUnmarshal %+v (err %v)\nlibrary   %+v (err %v)", data, got, err, want, wantErr)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q\nUnmarshal %+v once its input was overwritten\nlibrary   %+v", data, got, want)
	}
}

// FuzzDecodeMatchesEncodingJSON is the decoder's oracle on bytes nobody
// vouches for (agree), no decoded string pointing into them. The seeds are
// bodies of the grammar, which mutation keeps near it, and one body per
// reason to decline.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte(`{"tenant":"t","version":7,"name":"Q1","rows":[{"count":1,"entries":[{"label":"a","id":"a1","val":"x"},{"label":"b","id":"a1.b2","cont":"\u003cb\u003ey\u003c/b\u003e"}]},{"count":-2,"entries":[]}]}` + "\n"))
	f.Add([]byte(`{"tenant":"","version":0,"name":"","rows":[]}`))
	f.Add([]byte(`{"tenant":"t\ufffdn","version":18446744073709551615,"query":"//a[b=\"\u003c\"]","plan":"treewalk","matches":[{"id":"a1","label":"a","value":"\u0000\u001f\b\f\n\r\t\\\u2028 é"},{"id":"","label":"#text","value":""}]}` + "\n"))
	f.Add([]byte(`{"tenant":"t","version":3,"query":"q","matches":[]}`))
	f.Add([]byte(`{"tenant":"t","version":9,"targets":1,"views":[{"name":"Q1","rows_added":1,"rows_removed":0,"rows_modified":-2},{"name":"R\u003c","rows_added":0,"rows_removed":0,"rows_modified":0,"recomputed":true}]}` + "\n"))
	f.Add([]byte(`{"tenant":"t","version":9,"targets":0,"views":[]}`))
	for _, c := range declineCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree[ViewResponse](t, data)
		agree[XPathResponse](t, data)
		agree[UpdateResponse](t, data)
	})
}

// FuzzRequestDecodeMatchesEncodingJSON is the request decoder's oracle:
// on arbitrary bytes the server's scanner for UpdateRequest and
// CreateDBRequest declines or agrees with encoding/json, no decoded string
// pointing into them, and through json.Unmarshal — scanner or fallback —
// value and error-ness are the library's, a refusal of trailing data
// included. The seeds are bodies
// internal/client writes and one per reason to decline.
func FuzzRequestDecodeMatchesEncodingJSON(f *testing.F) {
	for _, body := range []string{
		`{"statement":"insert \u003cbidder/\u003e into //open_auction[@id=\"a1\"]"}`,
		`{"statement":""}` + "\n",
		`{"name":"shop"}`,
		`{"name":"shop","document":"\u003csite/\u003e","views":[{"name":"Q1","pattern":"//a{ID}"},{"name":"Q2","pattern":"//b{ID,val}"}]}`,
		`{"name":"shop","views":[]}`,
		`{"name":"shop","views":null}`,
		`{"name":"shop","document":""}`,
		// one per reason to decline
		`{ "statement" : "x" }`,
		`{"statement":"x"}` + " \t\n",
		`{"statement":"x","id":1}`,
		`{"Statement":"x"}`,
		`{"statement":"a\/b"}`,
		`{"statement":"\ud83d\ude00 \ud83d"}`,
		`{"statement":"a"}{"statement":"b"}`,
		`{"statement":"a"}x`,
		`{"document":"\u003ca/\u003e","name":"t"}`,
		`{"name":"t","views":[{"pattern":"//a{ID}","name":"V"}]}`,
		`{"name":"t","name":"u"}`,
		`{"statement":null}`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree[UpdateRequest](t, data)
		agree[CreateDBRequest](t, data)
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
			func(x *XPathResponse) error { return x.UnmarshalJSON([]byte(c.body)) },
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

// TestDecodedStringsDoNotAliasTheBody decodes a body of each wire type, as
// the encoder writes it — escapes, empty strings, repeated labels, a plan —
// through UnmarshalJSON, and holds every string of the result to lying
// outside the bytes decoded from; then it overwrites those bytes and wants
// the result unchanged. A string that aliased the body would read whatever
// the pooled buffer holds next.
func TestDecodedStringsDoNotAliasTheBody(t *testing.T) {
	snap := &core.Snapshot{Tenant: "t<1>", Version: 9}
	pat := pattern.MustNew(&pattern.Node{Label: "a", Store: pattern.StoreID | pattern.StoreVal,
		Children: []*pattern.Node{{Label: "b", Store: pattern.StoreID | pattern.StoreCont}}})
	vs := &core.ViewSnapshot{ViewDef: &core.ViewDef{Name: "V&", Pattern: pat, Shape: algebra.NewShape(pat)}}
	root := dewey.NewRoot("a")
	var rows []algebra.Row
	var nodes []*xmltree.Node
	for i := range 4 {
		id := root.Child("b", dewey.OrdAt(i))
		rows = append(rows, vs.Shape.Pack([]algebra.RowEntry{
			{NodeIdx: 0, ID: root, Val: []string{"", "x\"y"}[i%2]},
			{NodeIdx: 1, ID: id, Cont: []string{"<b>c</b>", ""}[i%2]},
		}, 1))
		n := xmltree.NewNode(xmltree.Text, "b", []string{"", "1 < 2", "plain"}[i%3])
		n.SetID(id)
		nodes = append(nodes, n)
	}
	vs.Rows = dewey.ChunksOf(rows)
	xpath := appendXPathHead(nil, snap, `//b[.="<"]`, "treewalk", true)
	xpath = append(appendNodeMatches(xpath, nodes), xpathTail...)
	rep := &core.Report{Targets: 1, Views: []core.ViewReport{
		{View: &core.ManagedView{ViewDef: &core.ViewDef{Name: "V&"}}, RowsAdded: 1},
		{View: &core.ManagedView{ViewDef: &core.ViewDef{Name: ""}}, Panicked: true},
	}}
	create := CreateDBRequest{Name: "shop", Document: "<site a=\"&amp;\"/>", Views: []ViewSpec{{Name: "Q1", Pattern: "//a{ID}"}, {Name: "", Pattern: ""}}}

	check := func(name string, body []byte, decode func([]byte) (any, error), want any) {
		t.Helper()
		data := bytes.Clone(body)
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), want) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
		ownsItsStrings(t, reflect.ValueOf(got).Elem().Interface(), unsafe.String(unsafe.SliceData(data), len(data)))
		for i := range data {
			data[i] = 0xFF
		}
		if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), want) {
			t.Fatalf("%s: decoded %+v, then its body was overwritten and it reads %+v", name, want, got)
		}
	}
	into := func(v json.Unmarshaler) func([]byte) (any, error) {
		return func(data []byte) (any, error) { return v, v.UnmarshalJSON(data) }
	}
	declined := decodeDeclined.Load() + requestDeclined.Load()

	view := appendViewResponse(nil, snap, vs)
	wantView, _ := libDecode[ViewResponse](view)
	check("view", view, into(new(ViewResponse)), wantView)
	if e := wantView.Rows; e[0].Entries[0].Label != "a" || e[2].Entries[0].Val != "" || e[1].Entries[1].Cont != "" {
		t.Fatalf("the view body lacks the empty strings it was built with: %+v", wantView)
	}
	wantXPath, _ := libDecode[XPathResponse](xpath)
	check("xpath", xpath, into(new(XPathResponse)), wantXPath)
	if wantXPath.Plan != "treewalk" || wantXPath.Matches[0].Value != "" {
		t.Fatalf("the xpath body lacks its plan or an empty value: %+v", wantXPath)
	}
	applied := appendUpdateResponse(nil, "t<1>", 9, rep)
	wantUpdate, _ := libDecode[UpdateResponse](applied)
	check("update", applied, into(new(UpdateResponse)), wantUpdate)
	check("update request", (&UpdateRequest{Statement: `insert <a b="&"/> into /r`}).AppendJSON(nil),
		into(new(UpdateRequest)), UpdateRequest{Statement: `insert <a b="&"/> into /r`})
	check("create request", create.AppendJSON(nil), into(new(CreateDBRequest)), create)
	if n := decodeDeclined.Load() + requestDeclined.Load() - declined; n != 0 {
		t.Fatalf("the scanner declined %d of the encoder's bodies", n)
	}
}
