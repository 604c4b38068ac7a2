package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/difftest"
	"xivm/internal/obs"
	"xivm/internal/store"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// engState is everything replay must reproduce: the document, its Dewey-ID
// space, the version counter and every view's encoded rows.
type engState struct {
	doc     string
	ords    []byte
	version uint64
	views   map[string][]byte
}

// stateOf captures eng and holds each view to a fresh evaluation.
func stateOf(t *testing.T, eng *core.Engine) engState {
	t.Helper()
	s := engState{doc: eng.Doc.String(), ords: eng.Doc.EncodeOrds(), version: eng.Version(), views: map[string][]byte{}}
	for _, mv := range eng.Views {
		if !mv.View.EqualRows(algebra.Materialize(eng.Doc, mv.Pattern)) {
			t.Fatalf("view %s diverges from a fresh evaluation", mv.Name)
		}
		s.views[mv.Name] = store.EncodeSnapshot(store.NewMaterializedView(mv.Pattern, mv.View.Rows()))
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
		if !bytes.Equal(got.views[name], rows) {
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

	shipped, err := NewImage(img.RawManifest, img.DocXML, img.Ords, img.Views)
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

// failSecondUnit makes every translated batch stop after its first unit,
// the state the planner's gates exist to rule out.
func failSecondUnit(t *testing.T) {
	t.Helper()
	applyBatch = func(e *core.Engine, units []core.BatchPUL) (*core.Report, int, error) {
		rep, n, err := e.ApplyBatch(units[:1])
		if err == nil {
			err = errors.New("injected unit failure")
		}
		return rep, n, err
	}
	t.Cleanup(func() { applyBatch = (*core.Engine).ApplyBatch })
}

// TestOpenSurvivesPartAppliedBatch: when a translated batch part-applies,
// Replay reports the typed error, and Open restores the image again and
// finishes record by record — landing exactly where the live engine was.
func TestOpenSurvivesPartAppliedBatch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	db, err := Create(dir, []byte(xmark.GenerateSmall(2, 0)), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	// An insert run then a delete run: one batch, two units.
	tail := []string{
		`insert <note>a</note> into /site/categories`,
		`insert <note>b</note> into /site/catgraph`,
		`delete /site/closed_auctions/closed_auction`,
	}
	applyAll(t, db, tail)
	live := stateOf(t, db.Engine())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	failSecondUnit(t)
	d, err := xmltree.ParseString(xmark.GenerateSmall(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	var partApplied *PartAppliedError
	if _, err := Replay(core.New(d, core.WithMetrics(obs.New())), statementRecords(tail...)); !errors.As(err, &partApplied) {
		t.Fatalf("Replay = %v, want *PartAppliedError (the seam must reach a two-unit batch)", err)
	}
	if partApplied.Applied != 2 || partApplied.Statements != 3 {
		t.Fatalf("part-applied %d/%d, want 2/3", partApplied.Applied, partApplied.Statements)
	}

	re, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatalf("Open failed where per-record replay succeeds: %v", err)
	}
	defer re.Close()
	requireSameState(t, "recovery after a part-applied batch", stateOf(t, re.Engine()), live)
	if st := re.Stats(); st.Replayed != len(tail)+1 || st.Skipped != 0 {
		t.Fatalf("stats %+v, want %d replayed", st, len(tail)+1)
	}
	if got := reg.Counter("wal.recover.replayed").Value(); got != int64(len(tail)+1) {
		t.Fatalf("wal.recover.replayed = %d: the abandoned attempt must not be counted", got)
	}
	if !re.HasView("Q1") {
		t.Fatal("view registration lost across the second restore")
	}
	if _, err := re.Apply(mustStatement(t, `delete /site/catgraph`)); err != nil {
		t.Fatalf("recovered DB does not journal: %v", err)
	}
}
