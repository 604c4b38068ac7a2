package repl

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"xivm/internal/client"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/server"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

// defaultTenant is the tenant every test leader starts with.
const defaultTenant = "default"

// vocab is the leader write workload: inserts, deletes (including
// zero-target and rejected shapes, which journal but must converge to the
// same skip on the follower), a replace (two version bumps, never
// batchable), and mixed targets so batching gates fire both ways.
var vocab = []string{
	`insert <person id="pa"><name>Alpha</name><phone>+1 555 01</phone></person> into /site/people`,
	`for $x in /site/people/person insert <phone>+44 555 02</phone>`,
	`delete /site/people/person/phone`,
	`insert <bidder><date>02/02/2022</date><increase>1.50</increase></bidder> into /site/open_auctions/open_auction`,
	`delete /site/open_auctions/open_auction/bidder`,
	`replace /site/people/person/name with <name>Renamed</name>`,
	`delete /site/people/person/no_such_child`,
	`insert <watch/> into /site/people/person/watches`,
}

// queries drives the byte-comparison across the XPath read surface.
var queries = []string{
	`/site/people/person/name`,
	`//open_auction//increase`,
	`/site/people/person[watches]/name`,
	`//person[starts-with(@id,'person')]`,
}

func newLeader(t *testing.T, walOpts wal.Options) (*server.Registry, *httptest.Server) {
	t.Helper()
	walOpts.Metrics = obs.New()
	reg, err := server.NewRegistry(server.RegistryConfig{
		Shard:      server.Config{Metrics: obs.New()},
		DataDir:    t.TempDir(),
		WAL:        walOpts,
		DefaultDoc: xmark.GenerateSmall(1),
		DefaultViews: []server.ViewSpec{
			{Name: "Q1", Pattern: xmark.View("Q1").String()},
			{Name: "Q2", Pattern: xmark.View("Q2").String()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(defaultTenant, "", nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return reg, ts
}

func newFollowerReg(t *testing.T, leaderURL string) (*server.Registry, *httptest.Server) {
	t.Helper()
	reg, err := server.NewRegistry(server.RegistryConfig{
		Shard:      server.Config{Metrics: obs.New()},
		FollowerOf: leaderURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return reg, ts
}

// startFollower runs a Follower in the background and returns its stop
// function (idempotent, waits for the tailer to exit).
func startFollower(t *testing.T, f *Follower) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.Run(ctx)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	t.Cleanup(stop)
	return stop
}

// write applies one statement on the leader, tolerating apply-level
// rejections (they journal a record the follower must skip identically) but
// failing the test on transport errors.
func write(t *testing.T, db *client.DB, stmt string) {
	t.Helper()
	if _, err := db.Update(context.Background(), stmt); err != nil {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("update %q: %v", stmt, err)
		}
	}
}

func leaderLast(t *testing.T, db *client.DB) uint64 {
	t.Helper()
	st, err := db.ReplStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.LastLSN
}

// waitApplied blocks until the follower registry serves tenant name at
// LSN want.
func waitApplied(t *testing.T, reg *server.Registry, name string, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, st := range reg.Stats() {
			if st.Name == name && st.AppliedLSN >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached LSN %d (stats %+v)", want, reg.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fetch(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", path, resp.StatusCode, body)
	}
	return body
}

// compareReads asserts the follower serves byte-identical bodies to the
// leader on every read endpoint: the view list, each view's rows, and the
// XPath query mix. Both sides must be quiesced at the same LSN first.
func compareReads(t *testing.T, leaderURL, followerURL, tenant string) {
	t.Helper()
	paths := []string{
		"/v1/db/" + tenant + "/views",
		"/v1/db/" + tenant + "/views/Q1",
		"/v1/db/" + tenant + "/views/Q2",
	}
	for _, q := range queries {
		paths = append(paths, "/v1/db/"+tenant+"/xpath?q="+url.QueryEscape(q))
	}
	for _, p := range paths {
		lb := fetch(t, leaderURL, p)
		fb := fetch(t, followerURL, p)
		if string(lb) != string(fb) {
			t.Errorf("response mismatch at %s:\n  leader:   %s\n  follower: %s", p, lb, fb)
		}
	}
}

// TestFollowerConvergesFromCheckpoint is the acceptance-criteria harness:
// the leader runs an N-statement workload with aggressive checkpointing, so
// by the time the follower attaches the log head is truncated and catch-up
// MUST start from a shipped checkpoint (not LSN 0); the follower then tails
// the rest and must serve byte-identical responses at the leader's LSN.
func TestFollowerConvergesFromCheckpoint(t *testing.T) {
	_, lts := newLeader(t, wal.Options{CheckpointEvery: 8, SegmentBytes: 1024})
	lc := client.New(lts.URL)
	db := lc.DB(defaultTenant)
	for i := 0; i < 40; i++ {
		write(t, db, vocab[i%len(vocab)])
	}
	// Prove the catch-up cannot start at LSN 1: the head is gone.
	if _, _, _, err := db.ReplFrames(context.Background(), 1, 0, ""); !isSnapshotRequired(err) {
		t.Fatalf("stream from 1 = %v, want snapshot_required (harness must force checkpoint catch-up)", err)
	}

	folReg, fts := newFollowerReg(t, lts.URL)
	m := obs.New()
	f := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: 2 * time.Millisecond,
		Metrics:      m,
	})
	startFollower(t, f)

	last := leaderLast(t, db)
	waitApplied(t, folReg, defaultTenant, last, 30*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)

	// Keep writing: the follower must track the moving tip too.
	for i := 0; i < 10; i++ {
		write(t, db, vocab[i%len(vocab)])
	}
	last = leaderLast(t, db)
	waitApplied(t, folReg, defaultTenant, last, 30*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)

	if m.CounterValue("repl.follower.applied_lsn") != int64(last) {
		t.Fatalf("applied_lsn gauge %d, want %d", m.CounterValue("repl.follower.applied_lsn"), last)
	}
	if lag := m.CounterValue("repl.follower.lag_lsn"); lag != 0 {
		t.Fatalf("lag_lsn gauge %d after quiesce, want 0", lag)
	}
}

// TestFollowerKilledMidReplayConverges kills a follower partway through
// catch-up and starts a replacement; the replacement re-syncs from a
// snapshot and must converge to byte-identical state.
func TestFollowerKilledMidReplayConverges(t *testing.T) {
	_, lts := newLeader(t, wal.Options{})
	lc := client.New(lts.URL)
	db := lc.DB(defaultTenant)
	for i := 0; i < 30; i++ {
		write(t, db, vocab[i%len(vocab)])
	}

	folReg, fts := newFollowerReg(t, lts.URL)
	// Tiny reads, and a kill that lands inside a poll: once the first
	// follower has replayed killAfter records, the one it has just applied to
	// its engine is never published — the poll fails the way a dying process
	// does. "Mid-replay" is then a fact, not a race with the tailer.
	f1 := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: time.Millisecond,
		MaxBytes:     1,
		Metrics:      obs.New(),
	})
	const killAfter = 5
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	replayed := 0 // tailer goroutine only
	f1.replay = func(eng *core.Engine, recs []wal.Record) (wal.ReplayResult, error) {
		res, err := wal.Replay(eng, recs)
		if replayed += len(recs); err == nil && replayed >= killAfter {
			kill()
			err = ctx1.Err()
		}
		return res, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f1.Run(ctx1)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		kill()
		<-done
		t.Fatalf("first follower never replayed %d records", killAfter)
	}

	killedAt := uint64(0)
	for _, st := range folReg.Stats() {
		if st.Name == defaultTenant {
			killedAt = st.AppliedLSN
		}
	}
	if last := leaderLast(t, db); killedAt >= last {
		t.Fatalf("follower finished (LSN %d of %d) before the kill — not mid-replay", killedAt, last)
	}

	// More writes land while the follower is down.
	for i := 0; i < 10; i++ {
		write(t, db, vocab[(i+3)%len(vocab)])
	}

	f2 := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: 2 * time.Millisecond,
		Metrics:      obs.New(),
	})
	startFollower(t, f2)
	last := leaderLast(t, db)
	waitApplied(t, folReg, defaultTenant, last, 30*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)
}

// TestFollowerResyncsAfterTruncation forces the mid-stream 410: the
// leader's pin TTL is effectively zero, so checkpoint truncation races past
// a napping follower, whose next poll must answer snapshot_required and
// trigger a full re-sync — after which it converges again.
func TestFollowerResyncsAfterTruncation(t *testing.T) {
	_, lts := newLeader(t, wal.Options{
		CheckpointEvery: 4,
		SegmentBytes:    256,
		PinTTL:          time.Nanosecond,
	})
	lc := client.New(lts.URL)
	db := lc.DB(defaultTenant)
	for i := 0; i < 8; i++ {
		write(t, db, vocab[i%len(vocab)])
	}

	folReg, fts := newFollowerReg(t, lts.URL)
	m := obs.New()
	f := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: 150 * time.Millisecond, // long naps: truncation outruns the tailer
		Metrics:      m,
	})
	startFollower(t, f)
	waitApplied(t, folReg, defaultTenant, leaderLast(t, db), 30*time.Second)

	// Burst writes roll checkpoints (truncating the un-pinned log) inside
	// the follower's nap window until a re-sync is observed.
	deadline := time.Now().Add(20 * time.Second)
	for m.CounterValue("repl.follower.resyncs") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-synced (resyncs=%d)", m.CounterValue("repl.follower.resyncs"))
		}
		for i := 0; i < 8; i++ {
			write(t, db, vocab[i%len(vocab)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitApplied(t, folReg, defaultTenant, leaderLast(t, db), 30*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)
}

// TestFollowerResyncsOnPartAppliedBatch: when replay reports a translated
// batch stopped between its units, the follower's engine is somewhere no
// log position describes; it must throw the engine away, re-sync from a
// snapshot and converge — never publish the half-applied state.
func TestFollowerResyncsOnPartAppliedBatch(t *testing.T) {
	_, lts := newLeader(t, wal.Options{})
	lc := client.New(lts.URL)
	db := lc.DB(defaultTenant)
	for i := 0; i < 12; i++ {
		write(t, db, vocab[i%len(vocab)])
	}

	folReg, fts := newFollowerReg(t, lts.URL)
	m := obs.New()
	f := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: 2 * time.Millisecond,
		Metrics:      m,
	})
	failed := false // tailer goroutine only
	f.replay = func(eng *core.Engine, recs []wal.Record) (wal.ReplayResult, error) {
		if failed {
			return wal.Replay(eng, recs)
		}
		failed = true
		res, _ := wal.Replay(eng, recs[:len(recs)/2]) // leave the engine mid-tail
		return res, &wal.PartAppliedError{Applied: 1, Statements: 2, Err: errors.New("injected")}
	}
	startFollower(t, f)

	last := leaderLast(t, db)
	waitApplied(t, folReg, defaultTenant, last, 30*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)
	if got := m.CounterValue("repl.follower.resyncs"); got != 2 {
		t.Fatalf("resyncs = %d, want 2 (initial catch-up + the part-applied batch)", got)
	}
	if got := m.CounterValue("repl.follower.reconnects"); got != 0 {
		t.Fatalf("reconnects = %d: a part-applied batch is not a transport error to back off from", got)
	}
}

// TestFollowerConvergenceStress runs concurrent writers against the leader
// while the follower tails live, then quiesces and asserts byte-identical
// responses — the shadow-oracle pattern across the replication boundary.
// Run under -race this also exercises the concurrent WAL read path.
func TestFollowerConvergenceStress(t *testing.T) {
	_, lts := newLeader(t, wal.Options{CheckpointEvery: 16, SegmentBytes: 4096})
	lc := client.New(lts.URL)
	db := lc.DB(defaultTenant)

	folReg, fts := newFollowerReg(t, lts.URL)
	f := NewFollower(lc, folReg, defaultTenant, Options{
		PollInterval: time.Millisecond,
		MaxBytes:     2048,
		Metrics:      obs.New(),
	})
	startFollower(t, f)

	writers, perWriter := 3, 30
	if testing.Short() {
		writers, perWriter = 2, 10
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wdb := client.New(lts.URL).DB(defaultTenant)
			for i := 0; i < perWriter; i++ {
				write(t, wdb, vocab[(w+i)%len(vocab)])
			}
		}(w)
	}
	wg.Wait()

	last := leaderLast(t, db)
	if last == 0 {
		t.Fatal("no writes landed")
	}
	waitApplied(t, folReg, defaultTenant, last, 60*time.Second)
	compareReads(t, lts.URL, fts.URL, defaultTenant)
}

// TestFleetDiscovery checks the fleet lifecycle: tenants created on the
// leader appear on the follower, and dropped tenants are unrouted.
func TestFleetDiscovery(t *testing.T) {
	_, lts := newLeader(t, wal.Options{})
	lc := client.New(lts.URL)

	folReg, fts := newFollowerReg(t, lts.URL)
	fleet := NewFleet(lc, folReg, Options{PollInterval: 2 * time.Millisecond, Metrics: obs.New()})
	fleet.Rediscover = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fleet.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	if _, err := lc.CreateDB(context.Background(), client.CreateDB{Name: "extra"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{defaultTenant, "extra"} {
		db := lc.DB(name)
		write(t, db, vocab[0])
		waitApplied(t, folReg, name, leaderLast(t, db), 30*time.Second)
		compareReads(t, lts.URL, fts.URL, name)
	}

	if err := lc.DropDB(context.Background(), "extra"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := folReg.Get("extra"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped tenant still routed on the follower")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The follower's own API rejects writes with a pointer to the leader.
	resp, err := http.Post(fts.URL+"/v1/db/"+defaultTenant+"/update",
		"application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower update: %d, want 403", resp.StatusCode)
	}
}
