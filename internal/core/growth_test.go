package core

import (
	"fmt"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/pattern"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// TestLeavesTermsDoNotGrowWithTheDocument pins how the work of the served
// policy's terms grows with the document: the benchmark's seven views
// over XMark seed 1 at 1 MB and at 4 MB, maintained through 20 bidder and
// 20 name insert/delete pairs, each under a different open_auction or
// person. Per statement, the tuples the joins scan and the items the
// reduced reads return may grow by half at most: a term reads a relation
// where the ∆'s IDs say it can join, a few items whatever the document's
// size. Streaming the relations instead, as terms did before they probed,
// or a snowcap, as Snowcaps' Mat join does, grows them with the document
// (the Mats' stream went from 2,748 to 11,104 tuples a statement).
func TestLeavesTermsDoNotGrowWithTheDocument(t *testing.T) {
	small, large := termWork(t, 1<<20), termWork(t, 4<<20)
	for _, c := range []string{"algebra.join.tuples_scanned", "store.probe.items"} {
		t.Logf("%s per statement: %.1f at 1 MB, %.1f at 4 MB", c, small[c], large[c])
		if small[c] == 0 {
			t.Errorf("%s: no work at 1 MB, the pin is vacuous", c)
		}
		if large[c] > 1.5*small[c] {
			t.Errorf("%s per statement: %.1f at 1 MB, %.1f at 4 MB: it grows with the document", c, small[c], large[c])
		}
	}
}

// termWork maintains the benchmark's views over an XMark document of
// about size bytes through the pin's 80 statements and returns each of
// its counters per statement.
func termWork(t *testing.T, size int) map[string]float64 {
	t.Helper()
	m := obs.New()
	e := New(mustDoc(t, xmark.Generate(xmark.Config{TargetBytes: size, Seed: 1})), WithMetrics(m))
	for _, v := range benchViews {
		if _, err := e.AddView(v[0], pattern.MustParse(v[1])); err != nil {
			t.Fatal(err)
		}
	}
	var stmts []string
	for k := range 20 {
		auction := fmt.Sprintf(`/site/open_auctions/open_auction[@id="open_auction%d"]`, k)
		person := fmt.Sprintf(`/site/people/person[@id="person%d"]`, k)
		stmts = append(stmts,
			`insert <bidder><date>03/03/2021</date><increase>3.00</increase><xbench/></bidder> into `+auction,
			`delete `+auction+`/bidder[xbench]`,
			`insert <name>Bench Mark<xbench/></name> into `+person,
			`delete `+person+`/name[xbench]`)
	}
	counters := []string{"algebra.join.tuples_scanned", "store.probe.items"}
	before := map[string]int64{}
	for _, c := range counters {
		before[c] = m.CounterValue(c)
	}
	for _, st := range stmts {
		rep, err := e.ApplyStatement(update.MustParse(st))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Targets != 1 {
			t.Fatalf("%s: %d targets, want 1", st, rep.Targets)
		}
		rep.Release()
		e.Snapshot()
	}
	per := map[string]float64{}
	for _, c := range counters {
		per[c] = float64(m.CounterValue(c)-before[c]) / float64(len(stmts))
	}
	checkViews(t, e, fmt.Sprintf("after the pin's statements at %d bytes", size))
	return per
}

// TestAbsentLabelCostsNoWalkPerStatement: a view whose reduced read
// reaches a label no node carries (zzz) reads that label's empty list,
// which installing the view indexed: statement after statement under the
// default policy, the tree is never walked for it, and once a zzz is
// inserted the list holds it and the view gains its rows.
func TestAbsentLabelCostsNoWalkPerStatement(t *testing.T) {
	e := New(mustDoc(t, `<r><a><b/></a><a/></r>`))
	mv := addView(t, e, `//a{ID}[//zzz]//b{ID}`)
	walks := xmltree.LabelWalks(e.Doc)
	for _, st := range []struct {
		src  string
		rows int
	}{
		{`insert <b/> into /r/a`, 0},
		{`delete /r/a/b`, 0},
		{`insert <b><c/></b> into /r/a`, 0},
		{`insert <zzz/> into /r/a/b/c`, 2},
		{`insert <b/> into /r/a`, 4},
		{`delete //zzz`, 0},
		{`insert <b/> into /r/a`, 0},
	} {
		apply(t, e, st.src).Release()
		e.Snapshot()
		if n := xmltree.LabelWalks(e.Doc) - walks; n != 0 {
			t.Fatalf("after %q: %d walks of the tree, want 0", st.src, n)
		}
		if mv.View.Len() != st.rows {
			t.Fatalf("after %q: %d rows, want %d", st.src, mv.View.Len(), st.rows)
		}
		checkViews(t, e, st.src)
	}
}
