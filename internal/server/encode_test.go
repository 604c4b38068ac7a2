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
// built the way the handlers used to build it. Each body is also the
// decoder's input (checkRoundTrip): an encoder change decode.go does not
// follow fails here instead of silently falling back.
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
		pat := pattern.MustNew(&pattern.Node{Label: label, Children: []*pattern.Node{{Label: idLabel}}})
		vs := &core.ViewSnapshot{Name: label, Pattern: pat}
		want := ViewResponse{Tenant: tenant, Version: version, Name: label, Rows: []RowJSON{}}
		for i := 0; i < rows; i++ {
			a, b := ids[i%len(ids)], ids[(i+1)%len(ids)]
			row := algebra.Row{Count: i - 1, Entries: []algebra.RowEntry{
				{NodeIdx: 0, ID: a, Val: val},
				{NodeIdx: 1, ID: b, Cont: cont},
			}}
			if i == 1 { // chunks of one, two and one rows
				vs.Rows[0] = append(vs.Rows[0], row)
			} else {
				vs.Rows = append(vs.Rows, []algebra.Row{row})
			}
			want.Rows = append(want.Rows, RowJSON{Count: i - 1, Entries: []EntryJSON{
				{Label: label, ID: a.String(), Val: val},
				{Label: idLabel, ID: b.String(), Cont: cont},
			}})
		}
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
			n.Children = children
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
				node.ID = ids[1]
			case 1:
				node = mk(xmltree.Text, xmltree.TextLabel, val)
				node.ID = ids[2]
			default:
				node = mk(xmltree.Attribute, "@"+label, cont)
				node.ID = ids[0]
			}
			nodes = append(nodes, node)
			xr.Matches = append(xr.Matches, MatchJSON{ID: node.ID.String(), Label: node.Label(), Value: node.StringValue()})
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
		xr.Plan, xr.Matches = "", []MatchJSON{}
		for i := 0; i < rows; i++ {
			answer = append(answer, algebra.Row{Count: 1, Entries: []algebra.RowEntry{{ID: ids[i%len(ids)], Val: val}}})
			xr.Matches = append(xr.Matches, MatchJSON{ID: ids[i%len(ids)].String(), Label: label, Value: val})
		}
		rewritten := appendXPathHead(nil, snap, query, plan, false)
		rewritten = append(appendRowMatches(rewritten, label, answer), xpathTail...)
		if want := encodeJSON(t, xr); !bytes.Equal(rewritten, want) {
			t.Fatalf("rewrite body\n got %q\nwant %q", rewritten, want)
		}
		checkRoundTrip(t, rewritten, xr, valid)
	})
}
