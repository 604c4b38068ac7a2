package bench

import (
	"fmt"
	"os"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmark"
)

func mustStatement(src string) *update.Statement {
	st, err := update.Parse(src)
	if err != nil {
		panic(err)
	}
	return st
}

// Recovery microbenchmark: checkpoint load (parse the document, decode
// every view snapshot) plus replay of a statement tail.

// recoverTail is the replayed statement suffix: insert churn under a
// subtree that a later statement deletes wholesale, plus an auction insert
// and a catgraph delete that survive. (BENCH_4.json's tail; it was built to
// favour the since-removed compacted replay.)
func recoverTail() []string {
	var stmts []string
	for i := 0; i < 4; i++ {
		stmts = append(stmts,
			fmt.Sprintf(`insert <person id="personB%d"><name>Bench Person %d</name></person> into /site/people`, i, i),
			`for $x in /site/people/person insert <phone>+33 555 0199</phone>`,
		)
	}
	return append(stmts,
		`for $x in /site/open_auctions/open_auction insert <bidder><date>01/01/2011</date><increase>4.50</increase></bidder>`,
		`delete /site/people`,
		`delete /site/catgraph`,
	)
}

// prepRecoverDir lays down a database directory whose recovery cost is the
// thing measured: a checkpoint of the document plus view Q1, then the churn
// tail in the log.
func prepRecoverDir(b *testing.B, docBytes int) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "xivm-bench-recover-")
	if err != nil {
		b.Fatal(err)
	}
	db, err := wal.Create(dir, []byte(Doc(docBytes)), wal.Options{Sync: wal.SyncNever, Metrics: obs.New()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AddView("Q1", xmark.View("Q1").String()); err != nil {
		b.Fatal(err)
	}
	// Checkpoint past the view record so the replay tail is statements
	// only.
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for _, src := range recoverTail() {
		if _, err := db.Apply(mustStatement(src)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// MicroRecoverEager measures wal.Open: image restore plus wal.Replay of
// the tail. The name predates the removal of compacted replay and is kept
// so results diff against BENCH_4.json.
func MicroRecoverEager(b *testing.B, docBytes int) {
	dir := prepRecoverDir(b, docBytes)
	defer os.RemoveAll(dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := wal.Open(dir, wal.Options{Metrics: obs.New()})
		if err != nil {
			b.Fatal(err)
		}
		if db.Stats().Replayed == 0 {
			b.Fatal("bench: recovery replayed nothing")
		}
		db.Close()
	}
}
