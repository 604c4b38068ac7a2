package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/xmark"
	"xivm/internal/xmltree"
)

// The crash matrix: one scripted run of the durability stack is first
// probed to count its filesystem operations, then re-run once per operation
// index with an injected crash (and a torn half-write when the crash lands
// inside a Write). Each leftover directory is recovered with the real
// filesystem and the result is held to the difftest oracle:
//
//   - the recovered document must equal the state after some statement
//     prefix k with k >= the number of acknowledged statements — SyncAlways
//     acknowledges only durable statements, and at most the one in-flight
//     journaled-but-unacknowledged statement may additionally replay;
//   - every recovered view must row-for-row equal a fresh evaluation of its
//     pattern over the recovered document;
//   - recovery may fail outright only if nothing was acknowledged (a crash
//     inside Create, before the initial checkpoint published).

var crashStatements = []string{
	`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
	`insert <person id="personX"><name>Nova Quinn</name></person> into /site/people`,
	`delete /site/people/person/phone`,
	`replace /site/people/person/name with <name>Replaced Name</name>`,
	`delete /site/closed_auctions/closed_auction`,
	`delete /site/catgraph`,
}

// runCrashScript drives one scripted session against fsys: create, register
// a view, apply the statements with a checkpoint mid-way. It returns how
// many statements were acknowledged before the first error.
func runCrashScript(dir string, fsys FS) (acked int, err error) {
	opts := Options{
		Sync:         SyncAlways,
		SegmentBytes: 256, // force rotation inside the script
		FS:           fsys,
		Metrics:      obs.New(),
	}
	db, err := Create(dir, []byte(xmark.GenerateSmall(11, 0)), opts)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		return 0, err
	}
	for i, src := range crashStatements {
		if i == len(crashStatements)/2 {
			if err := db.Checkpoint(); err != nil {
				return acked, err
			}
		}
		st, perr := update.Parse(src)
		if perr != nil {
			return acked, perr
		}
		if _, err := db.Apply(st); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, db.Close()
}

// prefixDocs returns the document serialization after each statement
// prefix, computed with the plain update machinery — the oracle states.
func prefixDocs(t *testing.T) []string {
	t.Helper()
	d, err := xmltree.ParseString(xmark.GenerateSmall(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	out := []string{d.String()}
	for _, src := range crashStatements {
		st, err := update.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kind == update.Replace {
			delPul, insPul, err := update.ExpandReplace(d, st)
			if err != nil {
				t.Fatalf("oracle %q: %v", src, err)
			}
			for _, pul := range []*update.PUL{delPul, insPul} {
				if _, err := update.Apply(d, nil, pul); err != nil {
					t.Fatalf("oracle %q: %v", src, err)
				}
			}
		} else if _, _, err := update.Run(d, nil, st); err != nil {
			t.Fatalf("oracle %q: %v", src, err)
		}
		out = append(out, d.String())
	}
	return out
}

func TestCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is a full fault-injection sweep")
	}
	// Probe: count the script's filesystem operations on a crash-free run.
	probeDir := t.TempDir()
	probe := NewFailFS(OSFS)
	acked, err := runCrashScript(probeDir, probe)
	if err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if acked != len(crashStatements) {
		t.Fatalf("probe acked %d statements", acked)
	}
	totalOps := probe.Ops()
	if totalOps < 20 {
		t.Fatalf("suspiciously few operations to crash at: %d", totalOps)
	}
	prefixes := prefixDocs(t)

	tornRuns := 0
	for at := 0; at < totalOps; at++ {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = at
		acked, err := runCrashScript(dir, ffs)
		if err == nil {
			t.Fatalf("crash at op %d did not surface", at)
		}
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("crash at op %d: unexpected error %v", at, err)
		}

		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			if acked > 0 {
				t.Fatalf("crash at op %d: %d statements acknowledged but recovery failed: %v", at, acked, err)
			}
			continue // crash inside Create, nothing promised yet
		}
		if re.Stats().TruncatedBytes > 0 {
			tornRuns++
		}
		got := re.Engine().Doc.String()
		k := -1
		for i := len(prefixes) - 1; i >= 0; i-- {
			if prefixes[i] == got {
				k = i
				break
			}
		}
		if k < 0 {
			t.Fatalf("crash at op %d: recovered document matches no statement prefix", at)
		}
		if k < acked {
			t.Fatalf("crash at op %d: recovered prefix %d but %d statements were acknowledged", at, k, acked)
		}
		for _, mv := range re.Engine().Views {
			want := algebra.Materialize(re.Engine().Doc, mv.Pattern)
			if !mv.View.EqualRows(want) {
				t.Fatalf("crash at op %d: recovered view %s diverges from fresh evaluation", at, mv.Name)
			}
		}
		re.Close()
	}
	if tornRuns == 0 {
		t.Fatal("no crash point produced a torn log tail; the matrix is not exercising truncation")
	}
}

// TestCrashTornBytesVariants re-runs a handful of crash points with
// different torn-write lengths — 0 bytes (clean cut), 1 byte, and one byte
// short of the full frame — to hit the cut at different frame offsets.
func TestCrashTornBytesVariants(t *testing.T) {
	probeDir := t.TempDir()
	probe := NewFailFS(OSFS)
	if _, err := runCrashScript(probeDir, probe); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	totalOps := probe.Ops()
	prefixes := prefixDocs(t)

	for _, torn := range []int{0, 1, 1 << 20} {
		for _, at := range []int{totalOps / 4, totalOps / 2, totalOps - 2} {
			dir := t.TempDir()
			ffs := NewFailFS(OSFS)
			ffs.CrashAt = at
			ffs.TornBytes = torn
			acked, err := runCrashScript(dir, ffs)
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("torn=%d at=%d: unexpected error %v", torn, at, err)
			}
			re, err := Open(dir, Options{Metrics: obs.New()})
			if err != nil {
				if acked > 0 {
					t.Fatalf("torn=%d at=%d: recovery failed after %d acks: %v", torn, at, acked, err)
				}
				continue
			}
			got := re.Engine().Doc.String()
			k := -1
			for i := len(prefixes) - 1; i >= 0; i-- {
				if prefixes[i] == got {
					k = i
					break
				}
			}
			if k < acked {
				t.Fatalf("torn=%d at=%d: recovered prefix %d < acked %d", torn, at, k, acked)
			}
			re.Close()
		}
	}
}

// TestCrashBetweenCheckpointFlushes kills a checkpoint at every filesystem
// operation it makes, on a document several buffers long: doc.xml reaches
// the disk in more than one write, and a crash between two of them — like a
// crash between two files — must leave nothing but a tmp directory. The
// reopened database stands on the older checkpoint plus the log, holds the
// acknowledged statement, and has swept the debris.
func TestCrashBetweenCheckpointFlushes(t *testing.T) {
	doc := []byte(xmark.Generate(xmark.Config{TargetBytes: 4 * ckptBufBytes, Seed: 3}))
	const stmt = `insert <person id="personX"><name>Nova Quinn</name></person> into /site/people`
	// script runs up to the checkpoint and reports the operation count just
	// before it.
	script := func(dir string, ffs *FailFS) (before int, err error) {
		db, err := Create(dir, doc, Options{Sync: SyncAlways, FS: ffs, Metrics: obs.New()})
		if err != nil {
			return 0, err
		}
		defer db.Close()
		if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
			return 0, err
		}
		st, err := update.Parse(stmt)
		if err != nil {
			return 0, err
		}
		if _, err := db.Apply(st); err != nil {
			return 0, err
		}
		return ffs.Ops(), db.Checkpoint()
	}
	probeDir := t.TempDir()
	probe := NewFailFS(OSFS)
	first, err := script(probeDir, probe)
	if err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	last := probe.Ops()
	re, err := Open(probeDir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	want := re.Engine().Doc.String()
	re.Close()
	if len(want) < 3*ckptBufBytes {
		t.Fatalf("document is %d bytes, too short to be flushed more than once", len(want))
	}

	for at := first; at < last; at++ {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = at
		if _, err := script(dir, ffs); !errors.Is(err, ErrCrash) {
			t.Fatalf("crash at op %d: unexpected error %v", at, err)
		}
		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			t.Fatalf("crash at op %d: recovery failed: %v", at, err)
		}
		if re.Engine().Doc.String() != want {
			t.Fatalf("crash at op %d: recovered document lost the acknowledged statement", at)
		}
		checkViews(t, re)
		re.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ckptTmpExt) {
				t.Fatalf("crash at op %d: %s survived Open", at, e.Name())
			}
		}
	}
}

// batchStatements is one batch the planner translates: predicate-free name
// paths, distinct targets, and inserted labels no later target names.
var batchStatements = []string{
	`insert <person id="pb1"><name>Batch One</name></person> into /site/people`,
	`insert <category id="cb1"><name>Batch Cat</name></category> into /site/categories`,
	`delete /site/catgraph`,
	`delete /site/closed_auctions/closed_auction`,
	`insert <item id="ib1"><name>Batch Item</name></item> into /site/regions/africa`,
}

// TestCrashMidBatchJournal crashes inside the k-th append of a translated
// batch's journal, for every k. The run then folds the k statements the
// log holds, and the rest fail with the crash; the live engine must be
// exactly what Open recovers from the directory, torn tail and all.
func TestCrashMidBatchJournal(t *testing.T) {
	// script creates a database, registers two views and applies the batch;
	// it returns the live engine's state, how many statements landed, the
	// batch's error and the operation count just before the batch.
	script := func(dir string, ffs *FailFS) (live engState, applied, before int, err error) {
		db, err := Create(dir, []byte(xmark.GenerateSmall(11, 0)), Options{Sync: SyncAlways, FS: ffs, Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, name := range []string{"Q1", "Q2"} {
			if _, err := db.AddView(name, xmark.View(name).String()); err != nil {
				t.Fatal(err)
			}
		}
		stmts := make([]*update.Statement, len(batchStatements))
		for i, src := range batchStatements {
			stmts[i] = mustStatement(t, src)
		}
		before = ffs.Ops()
		run := db.ApplyRun(stmts, nil)
		if len(run.Results) != len(stmts) {
			t.Fatalf("%d results for %d statements", len(run.Results), len(stmts))
		}
		for _, r := range run.Results {
			if r.Err != nil {
				err = r.Err
				break
			}
			applied++
		}
		if err == nil && !run.Translated {
			t.Fatalf("the batch is not translated (%s)", run.Reason)
		}
		return stateOf(t, db.Engine()), applied, before, err
	}
	probe := NewFailFS(OSFS)
	_, applied, before, err := script(t.TempDir(), probe)
	if err != nil || applied != len(batchStatements) {
		t.Fatalf("probe run: %d applied, %v", applied, err)
	}
	// Under SyncAlways each append is one write and one fsync.
	if got := probe.Ops() - before; got != 2*len(batchStatements) {
		t.Fatalf("the batch's journal took %d operations, want %d", got, 2*len(batchStatements))
	}

	for k := range batchStatements {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = before + 2*k // the write of the k-th append: half of it lands
		live, applied, _, err := script(dir, ffs)
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("crash in append %d: err = %v, want the crash", k, err)
		}
		if applied != k {
			t.Fatalf("crash in append %d: %d statements applied, want %d", k, applied, k)
		}
		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			t.Fatalf("crash in append %d: %v", k, err)
		}
		if re.Stats().TruncatedBytes == 0 {
			t.Fatalf("crash in append %d: no torn tail was cut", k)
		}
		requireSameState(t, fmt.Sprintf("crash in append %d", k), stateOf(t, re.Engine()), live)
		re.Close()
	}
}
