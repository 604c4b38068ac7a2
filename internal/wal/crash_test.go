package wal

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"xivm/internal/algebra"
	"xivm/internal/core"
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
// a view, apply the statements with a checkpoint mid-way — or, when every
// is positive, an automatic checkpoint every that many records. It returns
// how many statements were acknowledged before the first error.
func runCrashScript(dir string, fsys FS, every int) (acked int, err error) {
	opts := Options{
		Sync:            SyncAlways,
		SegmentBytes:    256, // force rotation inside the script
		CheckpointEvery: every,
		FS:              fsys,
		Metrics:         obs.New(),
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
		if every <= 0 && i == len(crashStatements)/2 {
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
		var puls []*update.PUL
		if st.Kind == update.Replace {
			delPul, insPul, err := update.ExpandReplace(d, st)
			if err != nil {
				t.Fatalf("oracle %q: %v", src, err)
			}
			puls = []*update.PUL{delPul, insPul}
		} else {
			pul, err := update.ComputePUL(d, st)
			if err != nil {
				t.Fatalf("oracle %q: %v", src, err)
			}
			puls = []*update.PUL{pul}
		}
		for _, pul := range puls {
			if _, err := update.Apply(d, pul); err != nil {
				t.Fatalf("oracle %q: %v", src, err)
			}
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
	acked, err := runCrashScript(probeDir, probe, 0)
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
		acked, err := runCrashScript(dir, ffs, 0)
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
	if _, err := runCrashScript(probeDir, probe, 0); err != nil {
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
			acked, err := runCrashScript(dir, ffs, 0)
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
// batch's journal, for every k. The crash takes the run's one fsync with
// it, so no statement of the run is acknowledged and the live engine is
// the one before it. Open cuts the torn tail and reads back the k whole
// records: the recovered state is exactly what a run of the first k
// statements leaves.
func TestCrashMidBatchJournal(t *testing.T) {
	// script creates a database, registers two views and applies the
	// first n statements of the batch as one run; it returns the live
	// engine's state, how many statements landed, the run's error and the
	// operation count just before the run.
	script := func(dir string, ffs *FailFS, n int) (live engState, applied, before int, err error) {
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
		stmts := make([]*update.Statement, n)
		for i, src := range batchStatements[:n] {
			stmts[i] = mustStatement(t, src)
		}
		before = ffs.Ops()
		if n == 0 {
			return stateOf(t, db.Engine()), 0, before, nil
		}
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
		if err == nil && n == len(batchStatements) && !run.Translated {
			t.Fatalf("the batch is not translated (%s)", run.Reason)
		}
		return stateOf(t, db.Engine()), applied, before, err
	}
	// after[k] is the state a fault-free run of the first k statements
	// leaves.
	after := make([]engState, len(batchStatements)+1)
	var before int // the operation count just before the run
	for k := range after {
		probe := NewFailFS(OSFS)
		st, applied, b, err := script(t.TempDir(), probe, k)
		before = b
		if err != nil || applied != k {
			t.Fatalf("probe run of %d: %d applied, %v", k, applied, err)
		}
		// Under SyncAlways each append is one write, and the run one fsync.
		if k == len(batchStatements) {
			if got := probe.Ops() - before; got != k+1 {
				t.Fatalf("the batch's journal took %d operations, want %d", got, k+1)
			}
		}
		after[k] = st
	}

	for k := range batchStatements {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = before + k // the write of the k-th append: half of it lands
		live, applied, _, err := script(dir, ffs, len(batchStatements))
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("crash in append %d: err = %v, want the crash", k, err)
		}
		if applied != 0 {
			t.Fatalf("crash in append %d: %d statements acknowledged without their fsync", k, applied)
		}
		requireSameState(t, fmt.Sprintf("crash in append %d: live", k), live, after[0])
		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			t.Fatalf("crash in append %d: %v", k, err)
		}
		if re.Stats().TruncatedBytes == 0 {
			t.Fatalf("crash in append %d: no torn tail was cut", k)
		}
		requireSameState(t, fmt.Sprintf("crash in append %d: recovered", k), stateOf(t, re.Engine()), after[k])
		re.Close()
	}
}

// TestRunIsOneFsync: under SyncAlways a run of five statements is five
// appends and one fsync, not one fsync a statement, and every statement of
// it is acknowledged and recovered.
func TestRunIsOneFsync(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	db, err := Create(dir, []byte(xmark.GenerateSmall(11, 0)), Options{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		t.Fatal(err)
	}
	stmts := make([]*update.Statement, len(batchStatements))
	for i, src := range batchStatements {
		stmts[i] = mustStatement(t, src)
	}
	fsyncs, appends := reg.Counter("wal.fsync.count").Value(), reg.Counter("wal.append.count").Value()
	run := db.ApplyRun(stmts, nil)
	for i, r := range run.Results {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	if n := reg.Counter("wal.append.count").Value() - appends; n != int64(len(stmts)) {
		t.Errorf("the run appended %d records, want %d", n, len(stmts))
	}
	if n := reg.Counter("wal.fsync.count").Value() - fsyncs; n != 1 {
		t.Errorf("the run of %d issued %d fsyncs, want 1", len(stmts), n)
	}
	live := stateOf(t, db.Engine())
	db.Close()
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireSameState(t, "recovered", stateOf(t, re.Engine()), live)
}

// TestCrashMidRunKeepsEveryAck crashes at every filesystem operation of a
// five-statement run under SyncAlways — each append's write and the run's
// one fsync — and recovers the directory: the recovered document is the
// state after some prefix of the run no shorter than the statements the
// run acknowledged, and every view equals a fresh evaluation.
func TestCrashMidRunKeepsEveryAck(t *testing.T) {
	docXML := xmark.GenerateSmall(11, 0)
	// The oracle: the document after each prefix of the run, one
	// statement at a time.
	d, err := xmltree.ParseString(docXML)
	if err != nil {
		t.Fatal(err)
	}
	twin := core.New(d, core.WithMetrics(obs.New()))
	prefixes := []string{twin.Doc.String()}
	for _, src := range batchStatements {
		if _, err := twin.ApplyStatement(mustStatement(t, src)); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, twin.Doc.String())
	}
	script := func(dir string, ffs *FailFS) (acked, before int) {
		db, err := Create(dir, []byte(docXML), Options{Sync: SyncAlways, FS: ffs, Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
			t.Fatal(err)
		}
		stmts := make([]*update.Statement, len(batchStatements))
		for i, src := range batchStatements {
			stmts[i] = mustStatement(t, src)
		}
		before = ffs.Ops()
		for _, r := range db.ApplyRun(stmts, nil).Results {
			if r.Err != nil {
				break
			}
			acked++
		}
		return acked, before
	}
	probe := NewFailFS(OSFS)
	acked, before := script(t.TempDir(), probe)
	ops := probe.Ops() - before
	if acked != len(batchStatements) || ops != len(batchStatements)+1 {
		t.Fatalf("probe run: %d acknowledged in %d operations, want %d in %d", acked, ops, len(batchStatements), len(batchStatements)+1)
	}
	for at := range ops {
		dir := t.TempDir()
		ffs := NewFailFS(OSFS)
		ffs.CrashAt = before + at
		acked, _ := script(dir, ffs)
		re, err := Open(dir, Options{Metrics: obs.New()})
		if err != nil {
			t.Fatalf("crash at op %d of the run: %v", at, err)
		}
		k := slices.Index(prefixes, re.Engine().Doc.String())
		if k < acked {
			t.Fatalf("crash at op %d of the run: recovered prefix %d, but %d statements were acknowledged", at, k, acked)
		}
		for _, mv := range re.Engine().Views {
			if !mv.View.EqualRows(algebra.Materialize(re.Engine().Doc, mv.Pattern)) {
				t.Fatalf("crash at op %d of the run: view %s diverges from a fresh evaluation", at, mv.Name)
			}
		}
		re.Close()
	}
}

// TestRunWriteErrorSyncsItsPrefix fails the write of the third append of
// a five-statement run under SyncAlways — a full disk, not a crash: the
// filesystem goes on. The two statements appended before it are
// acknowledged only after the run's one fsync, and recovery reads back
// exactly them. When that fsync fails as well, no statement of the run is
// acknowledged and the live engine is the one before the run.
func TestRunWriteErrorSyncsItsPrefix(t *testing.T) {
	// script creates a database with a view and applies the first n
	// statements of the batch as one run, with fault set on the
	// filesystem at the operation count just before it. It returns the
	// engine's state before and after the run, the run's errors and its
	// fsyncs.
	script := func(dir string, n int, fault func(ffs *FailFS, before int)) (pre, live engState, errs []error, fsyncs int64) {
		ffs := NewFailFS(OSFS)
		reg := obs.New()
		db, err := Create(dir, []byte(xmark.GenerateSmall(11, 0)), Options{Sync: SyncAlways, FS: ffs, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
			t.Fatal(err)
		}
		stmts := make([]*update.Statement, n)
		for i, src := range batchStatements[:n] {
			stmts[i] = mustStatement(t, src)
		}
		pre = stateOf(t, db.Engine())
		fault(ffs, ffs.Ops())
		f0 := reg.Counter("wal.fsync.count").Value()
		for _, r := range db.ApplyRun(stmts, nil).Results {
			errs = append(errs, r.Err)
		}
		return pre, stateOf(t, db.Engine()), errs, reg.Counter("wal.fsync.count").Value() - f0
	}
	_, want, errs, _ := script(t.TempDir(), 2, func(*FailFS, int) {})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fault-free run of two: statement %d: %v", i, err)
		}
	}

	dir := t.TempDir()
	_, live, errs, fsyncs := script(dir, len(batchStatements), func(ffs *FailFS, before int) {
		ffs.ErrAt = before + 2 // the write of the third append
	})
	for i, err := range errs {
		if i < 2 && err != nil {
			t.Fatalf("statement %d, appended before the failed write: %v", i, err)
		}
		if i >= 2 && !errors.Is(err, ErrIO) {
			t.Fatalf("statement %d: err = %v, want the write error", i, err)
		}
	}
	if fsyncs != 1 {
		t.Fatalf("two statements acknowledged after %d fsyncs, want 1", fsyncs)
	}
	requireSameState(t, "live", live, want)
	re, err := Open(dir, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "recovered", stateOf(t, re.Engine()), want)
	re.Close()

	// The write fails, and the fsync after it too.
	pre, live, errs, _ := script(t.TempDir(), len(batchStatements), func(ffs *FailFS, before int) {
		ffs.ErrAt = before + 2
		ffs.CrashAt = before + 3
	})
	for i, err := range errs {
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("statement %d: err = %v, want the failed fsync's", i, err)
		}
	}
	requireSameState(t, "live after a failed fsync", live, pre)
}
