package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// engState is everything replay must reproduce: the document, its Dewey-ID
// space, the version counter and every view's rows.
type engState struct {
	doc     string
	ords    []byte
	version uint64
	views   map[string][]algebra.Row
}

// stateOf captures eng and holds each view to a fresh evaluation.
func stateOf(t *testing.T, eng *core.Engine) engState {
	t.Helper()
	s := engState{doc: eng.Doc.String(), ords: eng.Doc.EncodeOrds(), version: eng.Version(), views: map[string][]algebra.Row{}}
	for _, mv := range eng.Views {
		if !mv.View.EqualRows(algebra.Materialize(eng.Doc, mv.Pattern)) {
			t.Fatalf("view %s diverges from a fresh evaluation", mv.Name)
		}
		s.views[mv.Name] = mv.View.Rows()
	}
	return s
}

func requireSameState(t *testing.T, what string, got, want engState) {
	t.Helper()
	if got.doc != want.doc {
		t.Fatalf("%s: documents differ", what)
	}
	if !bytes.Equal(got.ords, want.ords) {
		t.Fatalf("%s: Dewey-ID spaces differ", what)
	}
	if got.version != want.version {
		t.Fatalf("%s: version %d, want %d", what, got.version, want.version)
	}
	if len(got.views) != len(want.views) {
		t.Fatalf("%s: %d views, want %d", what, len(got.views), len(want.views))
	}
	for name, rows := range want.views {
		if !slices.EqualFunc(got.views[name], rows, algebra.Row.Equal) {
			t.Fatalf("%s: view %s rows differ", what, name)
		}
	}
}

// TestReplaySourcesAgree journals one difftest workload and reaches its
// final state twice: by crash recovery from the directory, and the way a
// follower does — restore the shipped image, then replay the shipped
// frames. Same bytes, same fold, same state.
func TestReplaySourcesAgree(t *testing.T) {
	w := difftest.NewWorkload(7, 24)
	dir := t.TempDir()
	db, err := Create(dir, []byte(w.Doc()), Options{Metrics: obs.New(), SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	apply := func(srcs []string) {
		for _, src := range srcs {
			// An engine rejection is part of the workload: the record is
			// journaled and both replays must skip it alike.
			_, _ = db.Apply(mustStatement(t, src))
		}
	}
	apply(w.Statements[:8])
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(w.Statements[8:16])
	if _, err := db.AddView("Q2", xmark.View("Q2").String()); err != nil {
		t.Fatal(err)
	}
	apply(w.Statements[16:])
	live := stateOf(t, db.Engine())

	img, err := db.ReplImageNow()
	if err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for next := img.Manifest.LSN + 1; next <= db.LastLSN(); {
		chunk, n, err := ReadSegmentFrames(OSFS, filepath.Join(dir, "wal"), next, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames, next = append(frames, chunk...), n
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameState(t, "crash recovery vs live", stateOf(t, re.Engine()), live)

	shipped, err := NewImage(img.RawManifest, img.DocXML, img.Ords)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shipped.Restore()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(frames, img.Manifest.LSN+1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(eng, recs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "follower replay vs crash recovery", stateOf(t, eng), stateOf(t, re.Engine()))
	if st := re.Stats(); res.Applied != st.Replayed || res.Skipped != st.Skipped {
		t.Fatalf("follower applied/skipped %d/%d, recovery %d/%d", res.Applied, res.Skipped, st.Replayed, st.Skipped)
	}
}

func statementRecords(srcs ...string) []Record {
	recs := make([]Record, len(srcs))
	for i, src := range srcs {
		recs[i] = Record{LSN: uint64(i + 1), Kind: RecordStatement, Statement: src}
	}
	return recs
}

// replayFresh builds an engine over doc with view Q1 and folds recs into it.
func replayFresh(t *testing.T, doc string, recs []Record, chunk int) (*core.Engine, ReplayResult) {
	t.Helper()
	d, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(d, core.WithMetrics(obs.New()))
	if _, err := eng.AddView("Q1", xmark.View("Q1")); err != nil {
		t.Fatal(err)
	}
	res, err := replay(eng, recs, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

// TestReplayBatchedMatchesPerRecord: wherever chunks fall, batched replay
// reaches the document, rows and version that record-by-record replay does.
// The workloads mix every shape the planner gates on, plus the records
// replay skips and a view registration mid-tail.
func TestReplayBatchedMatchesPerRecord(t *testing.T) {
	extras := []Record{
		{Kind: RecordStatement, Statement: `insert /site/people/person/name into /site/catgraph`}, // CopyOf
		{Kind: RecordStatement, Statement: `this is not a statement`},
		{}, // a payload ParseRecord rejected
		{Kind: RecordView, ViewName: "Q2", ViewPattern: xmark.View("Q2").String()},
		{Kind: RecordView, ViewName: "bad", ViewPattern: `//[`},
		{Kind: RecordStatement, Statement: `delete /site`}, // engine rejects
	}
	translated, fellBack := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		w := difftest.NewWorkload(seed, 24)
		recs := statementRecords(w.Statements...)
		// Name-only, label-disjoint statements after the random ones give
		// the planner runs it accepts.
		recs = append(recs, statementRecords(
			`delete /site/regions/asia/item`,
			`insert <note>n</note> into /site/categories`,
			`delete /site/closed_auctions/closed_auction/annotation`,
		)...)
		for i, x := range extras {
			at := (int(seed) + 5*i) % len(recs)
			recs = append(recs[:at], append([]Record{x}, recs[at:]...)...)
		}
		oracleEng, oracle := replayFresh(t, w.Doc(), recs, 1)
		if oracle.Plans != 0 {
			t.Fatalf("seed %d: per-record replay planned %d chunks", seed, oracle.Plans)
		}
		want := stateOf(t, oracleEng)
		for _, chunk := range []int{2, 5, replayChunk} {
			eng, res := replayFresh(t, w.Doc(), recs, chunk)
			requireSameState(t, fmt.Sprintf("seed %d chunk %d", seed, chunk), stateOf(t, eng), want)
			if res.Applied != oracle.Applied || res.Skipped != oracle.Skipped || len(res.Views) != len(oracle.Views) {
				t.Fatalf("seed %d chunk %d: counts %+v, per-record %+v", seed, chunk, res, oracle)
			}
			if res.Applied+res.Skipped != len(recs) {
				t.Fatalf("seed %d chunk %d: %d applied + %d skipped of %d records", seed, chunk, res.Applied, res.Skipped, len(recs))
			}
			if chunk == replayChunk {
				translated += res.Batches
				fellBack += res.Plans - res.Batches
			}
		}
	}
	t.Logf("at chunk %d: %d chunks translated, %d fell back", replayChunk, translated, fellBack)
	if translated == 0 || fellBack == 0 {
		t.Fatalf("at the production chunk size %d chunks translated and %d fell back; the seeds must cover both", translated, fellBack)
	}
}

// TestReplayRejectedChunkPlannedOnce: a chunk the planner rejects costs one
// plan attempt and then goes per statement as a whole — not one re-plan per
// rejected head, which resolved every target twice.
func TestReplayRejectedChunkPlannedOnce(t *testing.T) {
	var srcs []string
	for i := 0; i < 2*replayChunk; i++ {
		srcs = append(srcs, `for $x in /site/people/person[phone] insert <homepage>http://example.net/~new</homepage>`)
	}
	_, res := replayFresh(t, xmark.GenerateSmall(3, 0), statementRecords(srcs...), replayChunk)
	if res.Plans != 2 || res.Batches != 0 {
		t.Fatalf("%d statements: %d plans, %d batches; want 2 plans (one per chunk), 0 batches", len(srcs), res.Plans, res.Batches)
	}
	if res.Applied != len(srcs) {
		t.Fatalf("applied %d of %d", res.Applied, len(srcs))
	}
}

// replacePanics is a tracer under which every replace panics as it starts.
// The planner refuses a run that holds a replace, so every fold — the
// shard's writer, Replay at any chunk size — applies one through
// Engine.ApplyStatement, whose span this is.
var replacePanics = obs.TracerFunc(func(name string) func() {
	if name == "apply:replace" {
		panic("injected replace failure")
	}
	return func() {}
})

// poisonedTail is forty statements, planner-friendly but for a replace at
// LSN 36.
func poisonedTail() []Record {
	var srcs []string
	for i := 0; i < 40; i++ {
		switch {
		case i == 35:
			srcs = append(srcs, `replace /site/people/person/name with <name>Renamed</name>`)
		case i%2 == 0:
			srcs = append(srcs, fmt.Sprintf(`insert <note>n%d</note> into /site/categories`, i))
		default:
			srcs = append(srcs, `delete /site/closed_auctions/closed_auction/annotation`)
		}
	}
	return statementRecords(srcs...)
}

// TestReplayPanicNamesItsChunk: a record whose fold panics ends Replay with
// a *ReplayPanicError naming the chunk that held it — the record alone at
// chunk 1, the second chunk of 32 otherwise — instead of the panic.
func TestReplayPanicNamesItsChunk(t *testing.T) {
	for _, c := range []struct {
		chunk       int
		first, last uint64
	}{{1, 36, 36}, {replayChunk, 33, 40}} {
		d, err := xmltree.ParseString(xmark.GenerateSmall(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(d, core.WithMetrics(obs.New()), core.WithTracer(replacePanics))
		res, err := replay(eng, poisonedTail(), c.chunk)
		var rp *ReplayPanicError
		if !errors.As(err, &rp) || rp.First != c.first || rp.Last != c.last {
			t.Fatalf("chunk %d: err = %v, want a replay panic in records %d-%d", c.chunk, err, c.first, c.last)
		}
		if res.Applied < int(c.first)-1 {
			t.Fatalf("chunk %d: %d records applied before the panic, want at least %d", c.chunk, res.Applied, c.first-1)
		}
	}
}

// TestOpenReturnsAReplayPanic: Open of a directory whose log holds a
// record that panics on the opening engine fails with the
// *ReplayPanicError, and the same directory opens whole under an engine
// that does not panic.
func TestOpenReturnsAReplayPanic(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, []byte(xmark.GenerateSmall(3, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	recs := poisonedTail()
	for _, r := range recs {
		if _, err := db.Apply(mustStatement(t, r.Statement)); err != nil {
			t.Fatal(err)
		}
	}
	live := stateOf(t, db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{Metrics: obs.New(), Engine: []core.Option{core.WithTracer(replacePanics)}})
	var rp *ReplayPanicError
	if !errors.As(err, &rp) || rp.First > 37 || rp.Last < 37 {
		t.Fatalf("Open = %v, want a replay panic covering LSN 37 (the view record is LSN 1)", err)
	}
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameState(t, "reopened without the panic", stateOf(t, re.Engine()), live)
}
