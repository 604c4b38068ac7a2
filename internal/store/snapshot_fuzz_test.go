package store

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/dewey"
	"xivm/internal/pattern"
	"xivm/internal/xmltree"
)

// fuzzSeedDoc is the document the fuzz seeds materialize their views on.
const fuzzSeedDoc = `<site><people><person id="p1"><name>Ann</name></person><person id="p2"><name>Bob</name></person></people></site>`

// fuzzSeedPatterns are the fuzz seeds' views: a node storing its val and
// another its cont, and Fig. 24's "VC All Nodes", whose every node stores
// both — xmark.Q1Variant(xmark.VariantVCAll), spelled out, since xmark
// imports this package.
var fuzzSeedPatterns = []*pattern.Pattern{
	pattern.MustParse(`//person{ID,val}//name{ID,cont}`),
	pattern.MustParse(`/site{ID,val,cont}/people{ID,val,cont}/person{ID,val,cont}[/@id{ID,val,cont}]/name{ID,val,cont}`),
}

// fuzzSeedSnapshot builds a small but representative snapshot of seed
// pattern i: several rows, multi-entry rows, shared labels, values and
// contents.
func fuzzSeedSnapshot(tb testing.TB, i int) []byte {
	tb.Helper()
	doc, err := xmltree.ParseString(fuzzSeedDoc)
	if err != nil {
		tb.Fatal(err)
	}
	p := fuzzSeedPatterns[i]
	rows := algebra.Materialize(doc, p)
	if len(rows) == 0 {
		tb.Fatal("seed snapshot has no rows")
	}
	return EncodeSnapshot(NewMaterializedView(p, rows))
}

// FuzzSnapshotDecode hardens DecodeSnapshot against arbitrary bytes,
// decoded against the shape of a seed's pattern: it must either return
// rows or an error — never panic, and never allocate proportionally to
// forged counts. Every decoded row must unpack and pack back to itself, and
// valid inputs must re-encode and decode to the same row set.
func FuzzSnapshotDecode(f *testing.F) {
	for seed := range fuzzSeedPatterns {
		valid := fuzzSeedSnapshot(f, seed)
		f.Add(valid, seed == 1)
		f.Add([]byte{}, seed == 1)
		f.Add([]byte("XIVM1"), seed == 1)
		f.Add([]byte("XIVM0junk"), seed == 1)
		// Truncations at every framing boundary the decoder crosses.
		for _, cut := range []int{1, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			if cut > 0 && cut < len(valid) {
				f.Add(valid[:cut], seed == 1)
			}
		}
		// Bit flips, including in the varint count positions right after
		// the magic where forged huge counts live.
		for _, at := range []int{5, 6, 7, len(valid) / 2, len(valid) - 2} {
			if at >= 0 && at < len(valid) {
				flipped := append([]byte(nil), valid...)
				flipped[at] ^= 0x80
				f.Add(flipped, seed == 1)
			}
		}
		// Trailing garbage after a valid body.
		f.Add(append(append([]byte(nil), valid...), 0xFF, 0x00), seed == 1)
	}

	f.Fuzz(func(t *testing.T, data []byte, vcAll bool) {
		p := fuzzSeedPatterns[0]
		if vcAll {
			p = fuzzSeedPatterns[1]
		}
		shape := algebra.NewShape(p)
		rows, err := DecodeSnapshot(data, shape)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "store:") && !strings.HasPrefix(err.Error(), "dewey:") {
				t.Fatalf("unexpected error namespace: %v", err)
			}
			return
		}
		entries := make([]algebra.RowEntry, shape.Width())
		for i, r := range rows {
			for j := range entries {
				entries[j] = shape.Entry(r, j)
			}
			if !shape.Fits(entries) || !shape.Pack(entries, r.Count).Equal(r) {
				t.Fatalf("decoded row %d does not round-trip through Entry and Pack", i)
			}
		}
		// A successful decode must survive an encode/decode round trip.
		// (Duplicate-identity rows merge in the view, so compare against
		// the view's own row set, not the raw decoded slice.)
		v := NewMaterializedView(p, rows)
		again, err := DecodeSnapshot(EncodeSnapshot(v), shape)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !NewMaterializedView(p, again).EqualRows(v.Rows()) {
			t.Fatal("snapshot round trip changed rows")
		}
	})
}

// forgeSnapshot encodes rows of entries as a view snapshot would, whatever
// pattern they fit: each row has derivation count 1.
func forgeSnapshot(rows ...[]algebra.RowEntry) []byte {
	var dict dewey.Dict
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(rows)))
	for _, r := range rows {
		body = binary.AppendUvarint(append(body, 1), uint64(len(r)))
		for _, e := range r {
			body = binary.AppendUvarint(body, uint64(e.NodeIdx))
			body = appendString(appendString(e.ID.Encode(&dict, body), e.Val), e.Cont)
		}
	}
	out := binary.AppendUvarint([]byte(snapshotMagic), uint64(dict.Len()))
	for i := 0; i < dict.Len(); i++ {
		label, _ := dict.Label(uint64(i))
		out = appendString(out, label)
	}
	return append(out, body...)
}

// TestSnapshotRejectsRowsOffItsPattern: a view snapshot is decoded against
// its pattern, so a row that pattern cannot have — a node it does not
// store, nodes out of order, too few or too many entries, an image its node
// does not keep — is an error, not a row installed to fail a later read.
// No checksum covers a checkpoint's view file, and a follower restores a
// leader's image through the same decoder.
func TestSnapshotRejectsRowsOffItsPattern(t *testing.T) {
	shape := algebra.NewShape(pattern.MustParse(`/site{ID}/people{ID}/person{ID}/name{ID,val}`))
	site := dewey.NewRoot("site")
	people := site.Child("people", dewey.OrdAt(0))
	person := people.Child("person", dewey.OrdAt(0))
	name := person.Child("name", dewey.OrdAt(0))
	good := []algebra.RowEntry{{NodeIdx: 0, ID: site}, {NodeIdx: 1, ID: people}, {NodeIdx: 2, ID: person}, {NodeIdx: 3, ID: name, Val: "Ann"}}
	if rows, err := DecodeSnapshot(forgeSnapshot(good), shape); err != nil || len(rows) != 1 || shape.Entry(rows[0], 3) != good[3] {
		t.Fatalf("a row of the pattern decodes to %v, %v", rows, err)
	}
	with := func(i int, e algebra.RowEntry) []algebra.RowEntry {
		r := slices.Clone(good)
		r[i] = e
		return r
	}
	for name, bad := range map[string][]algebra.RowEntry{
		"node 40 alone":       {{NodeIdx: 40, ID: name}},
		"node 40 for node 3":  with(3, algebra.RowEntry{NodeIdx: 40, ID: name, Val: "Ann"}),
		"nodes out of order":  {good[0], good[2], good[1], good[3]},
		"one entry short":     good[:3],
		"one entry over":      append(slices.Clone(good), algebra.RowEntry{NodeIdx: 4, ID: name}),
		"val on a bare node":  with(0, algebra.RowEntry{NodeIdx: 0, ID: site, Val: "x"}),
		"cont on a val node":  with(3, algebra.RowEntry{NodeIdx: 3, ID: name, Val: "Ann", Cont: "<name>Ann</name>"}),
		"the second row only": nil,
	} {
		rows := [][]algebra.RowEntry{good, bad}
		if bad == nil {
			rows = [][]algebra.RowEntry{good, with(1, algebra.RowEntry{NodeIdx: 2, ID: people})}
		}
		if _, err := DecodeSnapshot(forgeSnapshot(rows...), shape); err == nil || !strings.HasPrefix(err.Error(), "store:") {
			t.Errorf("%s: decode returned %v, want a store: error", name, err)
		}
	}
}

// TestDecodeSnapshotCorruptionErrors pins the explicit corruption classes:
// each must produce an error, not a panic or a silent success.
func TestDecodeSnapshotCorruptionErrors(t *testing.T) {
	valid := fuzzSeedSnapshot(t, 0)
	shape := algebra.NewShape(fuzzSeedPatterns[0])
	if _, err := DecodeSnapshot(valid, shape); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE1rest"),
		"magic only":  []byte("XIVM1"),
		"half header": valid[:6],
		"torn body":   valid[:len(valid)-3],
		"trailing":    append(append([]byte(nil), valid...), 0x01),
	}
	// Forged label count: magic + huge varint.
	cases["forged label count"] = append([]byte("XIVM1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	for name, data := range cases {
		if _, err := DecodeSnapshot(data, shape); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	// Every single-byte truncation must fail cleanly (never panic).
	for cut := 0; cut < len(valid); cut++ {
		if rows, err := DecodeSnapshot(valid[:cut], shape); err == nil {
			// Prefixes that happen to parse are only acceptable if they
			// decode to a plausible row set; the trailing-bytes check makes
			// this impossible for proper prefixes of a valid snapshot.
			t.Errorf("truncation at %d decoded %d rows without error", cut, len(rows))
		}
	}
}
