package server

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// encodeJSON is the oracle: what writeJSON sent for the wire struct before
// the read path encoded by hand.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzEncodeMatchesEncodingJSON holds the hand-rolled appender to the
// reflective encoder it replaced, byte for byte: for arbitrary labels, ID
// labels, values, contents, queries, plans and tenant names — invalid UTF-8,
// <>&, U+2028/U+2029 and control bytes included, as well as empty val, cont
// and plan (omitempty) and zero rows — the view body, the tree-walk body and
// the rewrite body each equal json.NewEncoder's output for the wire struct
// built the way the handlers used to build it; so does the update answer,
// written from a core.Report, and the two request bodies internal/client
// appends equal json.Marshal's. Each body is also the decoder's input
// (checkRoundTrip): an encoder change decode.go does not follow fails here
// instead of silently falling back.
func FuzzEncodeMatchesEncodingJSON(f *testing.F) {
	f.Add("name", "person", "Ann", "<name>Ann</name>", "//person/name", "single-view rewrite over R1", "bench", uint64(7), uint8(2))
	f.Add("a<b>&c", "\"q\\", "x y z", "\x00\x01\x1f\x7f\b\f\n\r\t", "//a[b=\"<\"]", "", "t\xffn", uint64(0), uint8(0))
	f.Add("\xe2\x80", "\xa8", "\xe2\x80", "\xa8tail", "é\xc3", "treewalk", "", ^uint64(0), uint8(3))
	f.Add("", "", "", "", "", "", "", uint64(1), uint8(1))
	f.Fuzz(func(t *testing.T, label, idLabel, val, cont, query, plan, tenant string, version uint64, n uint8) {
		// IDs whose rendering carries the fuzzed labels, a plain ordinal and
		// a grown one (the "_" and "+" forms).
		root := dewey.NewRoot(idLabel)
		ids := []dewey.ID{
			root,
			root.Child(label, dewey.OrdAt(int(n))),
			root.Child(label, dewey.Between(dewey.Ord{5}, dewey.Ord{6})).Child(idLabel, dewey.Ord{dewey.Gap + 3}),
			{},
		}
		snap := &core.Snapshot{Tenant: tenant, Version: version}
		rows := int(n % 4)

		// View body: two stored nodes, val on one and cont on the other, so
		// each is also seen empty.
		pat := pattern.MustNew(&pattern.Node{Label: label, Store: pattern.StoreID | pattern.StoreVal,
			Children: []*pattern.Node{{Label: idLabel, Store: pattern.StoreID | pattern.StoreCont}}})
		vs := &core.ViewSnapshot{ViewDef: &core.ViewDef{Name: label, Pattern: pat, Shape: algebra.NewShape(pat)}}
		want := ViewResponse{Tenant: tenant, Version: version, Name: label, Rows: []RowJSON{}}
		var stored []algebra.Row
		for i := 0; i < rows; i++ {
			a, b := ids[i%len(ids)], ids[(i+1)%len(ids)]
			row := vs.Shape.Pack([]algebra.RowEntry{
				{NodeIdx: 0, ID: a, Val: val},
				{NodeIdx: 1, ID: b, Cont: cont},
			}, i-1)
			stored = append(stored, row)
			want.Rows = append(want.Rows, RowJSON{Count: i - 1, Entries: []EntryJSON{
				{Label: label, ID: a.String(), Val: val},
				{Label: idLabel, ID: b.String(), Cont: cont},
			}})
		}
		vs.Rows = dewey.ChunksOf(stored)
		if got, want := appendViewResponse(nil, snap, vs), encodeJSON(t, want); !bytes.Equal(got, want) {
			t.Fatalf("view body\n got %q\nwant %q", got, want)
		}
		valid := true
		for _, s := range []string{label, idLabel, val, cont, query, plan, tenant} {
			valid = valid && utf8.ValidString(s)
		}
		checkRoundTrip(t, appendViewResponse(nil, snap, vs), want, valid)

		// Tree-walk body: an element whose string value spans two text nodes
		// (an escape may straddle them) around an attribute and a nested
		// element, then a text node and an attribute matched directly.
		var nodes []*xmltree.Node
		xr := XPathResponse{Tenant: tenant, Version: version, Query: query, Plan: plan, Matches: []MatchJSON{}}
		mk := func(kind xmltree.Kind, label, value string, children ...*xmltree.Node) *xmltree.Node {
			n := xmltree.NewNode(kind, label, value)
			for _, c := range children {
				n.AppendChild(c)
			}
			return n
		}
		for i := 0; i < rows; i++ {
			var node *xmltree.Node
			switch i {
			case 0:
				node = mk(xmltree.Element, label, "",
					mk(xmltree.Attribute, "@"+idLabel, cont),
					mk(xmltree.Text, xmltree.TextLabel, val),
					mk(xmltree.Element, idLabel, "", mk(xmltree.Text, xmltree.TextLabel, cont)))
				node.SetID(ids[1])
			case 1:
				node = mk(xmltree.Text, xmltree.TextLabel, val)
				node.SetID(ids[2])
			default:
				node = mk(xmltree.Attribute, "@"+label, cont)
				node.SetID(ids[0])
			}
			nodes = append(nodes, node)
			xr.Matches = append(xr.Matches, MatchJSON{ID: node.ID().String(), Label: node.Label(), Value: node.StringValue()})
		}
		walk := appendXPathHead(nil, snap, query, plan, true)
		walk = append(appendNodeMatches(walk, nodes), xpathTail...)
		if want := encodeJSON(t, xr); !bytes.Equal(walk, want) {
			t.Fatalf("walk body\n got %q\nwant %q", walk, want)
		}
		checkRoundTrip(t, walk, xr, valid)

		// Rewrite body: rows projected onto one stored node. Without explain
		// the plan stays out, whatever it is.
		var answer []algebra.Row
		answerShape := algebra.NewShape(pattern.MustNew(&pattern.Node{Label: label, Store: pattern.StoreID | pattern.StoreVal}))
		xr.Plan, xr.Matches = "", []MatchJSON{}
		for i := 0; i < rows; i++ {
			answer = append(answer, answerShape.Pack([]algebra.RowEntry{{ID: ids[i%len(ids)], Val: val}}, 1))
			xr.Matches = append(xr.Matches, MatchJSON{ID: ids[i%len(ids)].String(), Label: label, Value: val})
		}
		rewritten := appendXPathHead(nil, snap, query, plan, false)
		rewritten = append(appendRowMatches(rewritten, label, answerShape, answer), xpathTail...)
		if want := encodeJSON(t, xr); !bytes.Equal(rewritten, want) {
			t.Fatalf("rewrite body\n got %q\nwant %q", rewritten, want)
		}
		checkRoundTrip(t, rewritten, xr, valid)

		// Update answer: a view per row, the flag that means recomputed
		// seen set and unset.
		rep := &core.Report{Targets: int(n) - 2}
		ur := UpdateResponse{Tenant: tenant, Version: version, Targets: rep.Targets, Views: []UpdateViewJSON{}}
		for i := 0; i < rows; i++ {
			vr := core.ViewReport{
				View:      &core.ManagedView{ViewDef: &core.ViewDef{Name: []string{label, idLabel, val, cont}[i]}},
				RowsAdded: int(n) - i, RowsRemoved: i, RowsModified: -i,
				Panicked: i%2 == 1,
			}
			rep.Views = append(rep.Views, vr)
			ur.Views = append(ur.Views, UpdateViewJSON{
				Name: vr.View.Name, RowsAdded: vr.RowsAdded, RowsRemoved: vr.RowsRemoved, RowsModified: vr.RowsModified,
				Recomputed: vr.Panicked,
			})
		}
		applied := appendUpdateResponse(nil, tenant, version, rep)
		if want := encodeJSON(t, ur); !bytes.Equal(applied, want) {
			t.Fatalf("update body\n got %q\nwant %q", applied, want)
		}
		checkRoundTrip(t, applied, ur, valid)

		// The request bodies internal/client sends: what json.Marshal makes
		// of them, and taken by the server's scanner.
		req := UpdateRequest{Statement: query}
		body := req.AppendJSON(nil)
		if want, _ := json.Marshal(req); !bytes.Equal(body, want) {
			t.Fatalf("update request\n got %q\nwant %q", body, want)
		}
		if cap(body) != len(body) {
			t.Fatalf("update request of %d bytes grown to %d", len(body), cap(body))
		}
		for _, s := range []string{label, idLabel, val, cont, query, plan, tenant} {
			if got, want := jsonStringLen(s), len(appendJSONString(nil, s)); got != want {
				t.Fatalf("jsonStringLen(%q) = %d, appendJSONString appends %d", s, got, want)
			}
		}
		checkRoundTrip(t, body, req, valid)
		create := CreateDBRequest{Name: tenant, Document: cont}
		for i := 0; i < rows; i++ {
			create.Views = append(create.Views, ViewSpec{Name: label, Pattern: plan})
		}
		body = create.AppendJSON(nil)
		if want, _ := json.Marshal(create); !bytes.Equal(body, want) {
			t.Fatalf("create request\n got %q\nwant %q", body, want)
		}
		if cap(body) != len(body) {
			t.Fatalf("create request of %d bytes grown to %d", len(body), cap(body))
		}
		checkRoundTrip(t, body, create, valid)
	})
}

// appendRowMatches appends the matches array of a collected rewrite answer:
// rows of shape projected onto the query's one stored node, which carries
// ID and value. A served read streams the same bytes (appendPlanMatches).
func appendRowMatches(dst []byte, label string, shape *algebra.Shape, rows []algebra.Row) []byte {
	dst = append(dst, '[')
	for i := range rows {
		e := shape.Entry(rows[i], 0)
		dst = appendRowMatch(dst, i == 0, label, &e)
	}
	return append(dst, ']')
}
