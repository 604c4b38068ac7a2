// Command xivm maintains materialized views over an XML document while
// applying update statements.
//
// Usage:
//
//	xivm -doc auction.xml \
//	     -view 'Q1=for $b in doc("a")/site/people/person[@id] return $b/name/text()' \
//	     -pattern 'V2=//a{ID}[//c{ID}]//b{ID}' \
//	     [-policy snowcaps|leaves|cost] [-engine incr|lazy|full|ivma] [-rows] [-stats] \
//	     'insert <x/> into /site' 'delete //person[phone]' …
//
// Views are declared either in the paper's conjunctive XQuery dialect
// (-view) or directly as tree patterns (-pattern). Each trailing argument
// is one update statement, applied in order; after each statement the tool
// reports per-phase timings and row deltas, and -rows dumps view contents.
//
// With -data-dir the tool runs durably: statements are journaled to a
// write-ahead log before they touch any view, checkpoints capture the
// document plus every view, and restarting against the same directory
// recovers the exact acknowledged state (-doc is then only needed on first
// use, to create the database). -verify-recovery opens the directory,
// prints what recovery did, and checks every recovered view row-for-row
// against a fresh evaluation:
//
//	xivm -data-dir ./data -doc auction.xml -pattern 'Q1=...' 'delete //x'
//	xivm -data-dir ./data -fsync interval -checkpoint-every 100 'insert …'
//	xivm -data-dir ./data -verify-recovery
//
// -follow, -listen, -data-dir [-verify-recovery] or neither (batch) selects
// the mode; a flag the selected mode does not read is an error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	_ "net/http/pprof" // -serve exposes /debug/pprof
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"xivm/internal/algebra"
	"xivm/internal/core"
	"xivm/internal/obs"
	"xivm/internal/server"
	"xivm/internal/store"
	"xivm/internal/update"
	"xivm/internal/wal"
	"xivm/internal/xmltree"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "xivm:", err)
		os.Exit(1)
	}
}

// modeReads lists the flags each mode reads; -serve is read by every mode.
// A flag set on the command line that its mode does not read is refused
// rather than dropped.
var modeReads = map[string][]string{
	"-follow":          {"follow", "listen", "policy", "request-timeout", "drain-timeout"},
	"-listen":          {"listen", "data-dir", "db", "doc", "view", "pattern", "policy", "engine", "fsync", "fsync-interval", "checkpoint-every", "queue-depth", "max-batch", "request-timeout", "drain-timeout"},
	"-verify-recovery": {"verify-recovery", "data-dir", "db", "doc", "policy", "engine", "fsync", "fsync-interval", "checkpoint-every"},
	"-data-dir":        {"data-dir", "db", "doc", "view", "pattern", "policy", "engine", "fsync", "fsync-interval", "checkpoint-every", "rows", "stats", "metrics"},
	"batch":            {"doc", "view", "pattern", "policy", "engine", "rows", "stats", "save", "load", "metrics"},
}

// checkModeFlags refuses the first explicitly set flag that mode does not
// read.
func checkModeFlags(fs *flag.FlagSet, mode string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "serve" && !slices.Contains(modeReads[mode], f.Name) {
			err = fmt.Errorf("-%s is not read in %s mode", f.Name, mode)
		}
	})
	return err
}

func run(fs *flag.FlagSet, args []string) error {
	var views, patterns multiFlag
	docPath := fs.String("doc", "", "XML document to load (required)")
	fs.Var(&views, "view", "NAME=view definition (repeatable)")
	fs.Var(&patterns, "pattern", "NAME=tree pattern (repeatable)")
	policy := fs.String("policy", "snowcaps", "lattice policy: snowcaps, leaves, or cost")
	engine := fs.String("engine", "incr", "maintenance engine: incr, lazy, full, or ivma")
	showRows := fs.Bool("rows", false, "print view rows after each statement")
	stats := fs.Bool("stats", false, "print per-phase timing breakdowns")
	saveDir := fs.String("save", "", "directory to write per-view binary snapshots after all statements")
	loadDir := fs.String("load", "", "directory to restore per-view snapshots from (instead of materializing)")
	metricsOut := fs.String("metrics", "", `dump engine metrics when done: "json" to stdout, or a file path`)
	serveAddr := fs.String("serve", "", "serve /debug/pprof and /debug/vars on this address (e.g. :6060)")
	dataDir := fs.String("data-dir", "", "durable mode: tenant root directory; each database journals to <data-dir>/<name>")
	dbName := fs.String("db", "default", "database (tenant) name: the -data-dir subdirectory batch statements apply to, and the bootstrap/statement target of -listen")
	fsync := fs.String("fsync", "always", "durable mode fsync policy: always, interval, or never")
	fsyncInterval := fs.Duration("fsync-interval", 50*time.Millisecond, "group-commit window under -fsync interval")
	checkpointEvery := fs.Int("checkpoint-every", 0, "durable mode: checkpoint automatically after this many journaled records (0 = never)")
	verifyRecovery := fs.Bool("verify-recovery", false, "open -data-dir, report what recovery did, verify every view against a fresh evaluation, and exit")
	listenAddr := fs.String("listen", "", "serve the query/update HTTP API on this address (e.g. :8080) until interrupted")
	followURL := fs.String("follow", "", "follower mode: tail the leader at this base URL and serve reads at the applied LSN (requires -listen)")
	queueDepth := fs.Int("queue-depth", 64, "-listen mode: bounded apply-queue depth (full queue rejects with 429)")
	maxBatch := fs.Int("max-batch", 0, "-listen mode: cap on queued statements the writer translates into one propagation pass (0 = default 32, 1 = per-statement)")
	requestTimeout := fs.Duration("request-timeout", 10*time.Second, "-listen mode: per-request deadline for updates")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "-listen mode: graceful-drain budget on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode := "batch"
	switch {
	case *followURL != "":
		mode = "-follow"
	case *listenAddr != "":
		mode = "-listen"
	case *dataDir != "" && *verifyRecovery:
		mode = "-verify-recovery"
	case *dataDir != "":
		mode = "-data-dir"
	case *verifyRecovery:
		return fmt.Errorf("-verify-recovery requires -data-dir")
	}
	if err := checkModeFlags(fs, mode); err != nil {
		return err
	}

	// SIGINT/SIGTERM trigger a graceful drain everywhere: statement loops
	// stop between statements (the WAL group-commit window still flushes
	// through the normal exit path), the -listen server finishes in-flight
	// requests, and the -serve debug listener drains before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serveAddr != "" {
		obs.PublishExpvar("xivm", obs.Default())
		shutdown, err := server.ServeDebug(*serveAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("serving pprof/expvar on %s\n", *serveAddr)
	}

	switch mode {
	case "-follow":
		if *listenAddr == "" {
			return fmt.Errorf("-follow requires -listen (a follower exists to serve reads)")
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("-follow accepts no statements: followers are read-only")
		}
		return runFollow(ctx, listenConfig{
			addr:           *listenAddr,
			requestTimeout: *requestTimeout,
			drainTimeout:   *drainTimeout,
		}, *followURL, *policy)
	case "-listen":
		return runListen(ctx, listenConfig{
			addr:           *listenAddr,
			queueDepth:     *queueDepth,
			maxBatch:       *maxBatch,
			requestTimeout: *requestTimeout,
			drainTimeout:   *drainTimeout,
		}, durableConfig{
			dir:             *dataDir,
			db:              *dbName,
			docPath:         *docPath,
			views:           views,
			patterns:        patterns,
			policy:          *policy,
			engine:          *engine,
			fsync:           *fsync,
			fsyncInterval:   *fsyncInterval,
			checkpointEvery: *checkpointEvery,
			statements:      fs.Args(),
		})
	case "-data-dir", "-verify-recovery":
		return runDurable(ctx, durableConfig{
			dir:             *dataDir,
			db:              *dbName,
			docPath:         *docPath,
			views:           views,
			patterns:        patterns,
			policy:          *policy,
			engine:          *engine,
			fsync:           *fsync,
			fsyncInterval:   *fsyncInterval,
			checkpointEvery: *checkpointEvery,
			verify:          *verifyRecovery,
			showRows:        *showRows,
			stats:           *stats,
			metricsOut:      *metricsOut,
			statements:      fs.Args(),
		})
	}

	if *docPath == "" {
		return fmt.Errorf("-doc is required")
	}
	f, err := os.Open(*docPath)
	if err != nil {
		return err
	}
	doc, err := xmltree.Parse(f)
	f.Close()
	if err != nil {
		return err
	}

	eopts, err := policyOptions(*policy)
	if err != nil {
		return err
	}
	e := core.New(doc, eopts...)

	specs, err := compileViewSpecs(views, patterns)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if *loadDir == "" {
			mv, err := e.AddView(s.name, s.p)
			if err != nil {
				return err
			}
			fmt.Printf("view %-8s %s  (%d rows)\n", s.name, s.p, mv.View.Len())
			continue
		}
		data, err := os.ReadFile(filepath.Join(*loadDir, s.name+".xivm"))
		if err != nil {
			return fmt.Errorf("load view %s: %w", s.name, err)
		}
		rows, err := store.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("load view %s: %w", s.name, err)
		}
		mv, err := e.AddViewRows(s.name, s.p, rows)
		if err != nil {
			return err
		}
		fmt.Printf("view %-8s %s  (%d rows, restored)\n", s.name, s.p, mv.View.Len())
	}
	if len(e.Views) == 0 {
		return fmt.Errorf("no views declared (-view / -pattern)")
	}

	var lazy *core.Lazy
	if *engine == "lazy" {
		lazy = core.NewLazy(e)
	}
	for _, stmt := range fs.Args() {
		if ctx.Err() != nil {
			fmt.Println("\ninterrupted: remaining statements skipped")
			break
		}
		st, err := update.Parse(stmt)
		if err != nil {
			return err
		}
		fmt.Printf("\n>> %s\n", stmt)
		switch *engine {
		case "lazy":
			if err := lazy.Apply(st); err != nil {
				return err
			}
			fmt.Printf("deferred (%d pending)\n", lazy.Pending())
		case "incr":
			rep, err := e.ApplyStatement(st)
			if err != nil {
				return err
			}
			printReport(rep, *stats)
		case "full":
			d, err := e.FullRecompute(st)
			if err != nil {
				return err
			}
			fmt.Printf("full recomputation in %v\n", d)
		case "ivma":
			d, err := core.NewIVMA(e).ApplyStatement(st)
			if err != nil {
				return err
			}
			fmt.Printf("ivma propagation in %v\n", d)
		default:
			return fmt.Errorf("unknown engine %q", *engine)
		}
		if *showRows {
			printRows(e)
		}
	}
	if lazy != nil {
		d, err := lazy.Flush()
		if err != nil {
			return err
		}
		fmt.Printf("\nflushed deferred batch in %v\n", d)
	}
	if !*showRows {
		printRows(e)
	}
	if *saveDir != "" {
		if err := os.MkdirAll(*saveDir, 0o755); err != nil {
			return err
		}
		for _, mv := range e.Views {
			data := e.Store.EncodeView(mv.View)
			path := filepath.Join(*saveDir, mv.Name+".xivm")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("saved %s (%d bytes)\n", path, len(data))
		}
	}
	if *metricsOut != "" {
		return writeMetrics(e.Metrics(), *metricsOut)
	}
	return nil
}

// writeMetrics dumps m as JSON: to stdout for dest "json" or "-", else to
// the file dest.
func writeMetrics(m *obs.Metrics, dest string) error {
	if dest == "json" || dest == "-" {
		fmt.Println()
		return m.WriteJSON(os.Stdout)
	}
	var b strings.Builder
	if err := m.WriteJSON(&b); err != nil {
		return err
	}
	return os.WriteFile(dest, []byte(b.String()), 0o644)
}

func policyOptions(policy string) ([]core.Option, error) {
	switch policy {
	case "snowcaps":
		return nil, nil
	case "leaves":
		return []core.Option{core.WithPolicy(core.PolicyLeaves)}, nil
	case "cost":
		return []core.Option{core.WithPolicy(core.PolicyCost)}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", policy)
}

func printReport(rep *core.Report, stats bool) {
	fmt.Printf("targets=%d\n", rep.Targets)
	if stats {
		fmt.Printf("find=%v (once per statement)\n", rep.FindTargets)
	}
	for _, vr := range rep.Views {
		fmt.Printf("view %-8s +%d -%d ~%d rows  terms %d/%d",
			vr.View.Name, vr.RowsAdded, vr.RowsRemoved, vr.RowsModified,
			vr.TermsSurvived, vr.TermsTotal)
		if vr.PredFallback {
			fmt.Print("  [predicate flip: recomputed]")
		}
		fmt.Println()
		if stats {
			t := vr.Timings()
			fmt.Printf("  delta=%v expr=%v exec=%v lattice=%v\n",
				t.ComputeDelta, t.GetExpression, t.ExecuteUpdate, t.UpdateLattice)
		}
	}
}

type durableConfig struct {
	dir             string
	db              string
	docPath         string
	views           []string
	patterns        []string
	policy          string
	engine          string
	fsync           string
	fsyncInterval   time.Duration
	checkpointEvery int
	verify          bool
	showRows        bool
	stats           bool
	metricsOut      string
	statements      []string
}

// resolveTenantDir maps -data-dir/-db to the database directory. -data-dir
// is a tenant root (<root>/<db> holds the database), but a directory that
// itself holds checkpoints is the pre-multi-tenant flat layout and is used
// directly so existing databases keep working.
func resolveTenantDir(root, db string) (string, error) {
	if err := wal.ValidTenantName(db); err != nil {
		return "", err
	}
	if ok, err := wal.IsDatabase(nil, root); err == nil && ok {
		return root, nil
	}
	return wal.TenantDir(root, db), nil
}

// runDurable is the -data-dir mode: every statement goes through the
// database's write-ahead log under <data-dir>/<db>, and the directory
// recovers to the acknowledged state on the next run. Cancelling ctx stops
// between statements; everything acknowledged so far is synced on the way
// out.
func runDurable(ctx context.Context, cfg durableConfig) error {
	if cfg.engine != "incr" {
		return fmt.Errorf("-data-dir supports only -engine incr (the log replays through the incremental engine)")
	}
	specs, err := compileViewSpecs(cfg.views, cfg.patterns)
	if err != nil {
		return err
	}
	dir, err := resolveTenantDir(cfg.dir, cfg.db)
	if err != nil {
		return err
	}
	policy, err := wal.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return err
	}
	eopts, err := policyOptions(cfg.policy)
	if err != nil {
		return err
	}
	opts := wal.Options{
		Sync:            policy,
		SyncInterval:    cfg.fsyncInterval,
		CheckpointEvery: cfg.checkpointEvery,
		Engine:          eopts,
	}

	var db *wal.DB
	if cfg.docPath != "" {
		docXML, err := os.ReadFile(cfg.docPath)
		if err != nil {
			return err
		}
		db, err = wal.OpenOrCreate(dir, docXML, opts)
		if err != nil {
			return err
		}
	} else {
		db, err = wal.Open(dir, opts)
		if err != nil {
			return fmt.Errorf("%w (pass -doc to create a new database)", err)
		}
	}
	defer db.Close()
	printRecovery(db)

	if cfg.verify {
		return verifyViews(db)
	}

	for _, s := range specs {
		if db.HasView(s.name) {
			fmt.Printf("view %-8s (recovered)\n", s.name)
			continue
		}
		// The log stores the pattern rendering, which reparses to an equal
		// pattern regardless of which dialect declared it.
		mv, err := db.AddView(s.name, s.p.String())
		if err != nil {
			return err
		}
		fmt.Printf("view %-8s %s  (%d rows)\n", s.name, s.p, mv.View.Len())
	}
	if len(db.Engine().Views) == 0 {
		return fmt.Errorf("no views declared (-view / -pattern) and none recovered")
	}

	for _, stmt := range cfg.statements {
		if ctx.Err() != nil {
			fmt.Println("\ninterrupted: remaining statements skipped")
			break
		}
		st, err := update.Parse(stmt)
		if err != nil {
			return err
		}
		fmt.Printf("\n>> %s\n", stmt)
		rep, err := db.ApplyCtx(ctx, st)
		if errors.Is(err, context.Canceled) {
			fmt.Println("interrupted: statement aborted, views repaired")
			break
		}
		if err != nil {
			return err
		}
		printReport(rep, cfg.stats)
		if cfg.showRows {
			printRows(db.Engine())
		}
	}
	if err := db.Sync(); err != nil {
		return err
	}
	if !cfg.showRows {
		printRows(db.Engine())
	}
	fmt.Printf("\ndurable through lsn %d in %s\n", db.LastLSN(), db.Dir())
	if cfg.metricsOut != "" {
		return writeMetrics(obs.Default(), cfg.metricsOut)
	}
	return nil
}

func printRecovery(db *wal.DB) {
	st := db.Stats()
	fmt.Printf("recovered: checkpoint lsn=%d replayed=%d skipped=%d\n",
		st.CheckpointLSN, st.Replayed, st.Skipped)
	if st.TruncatedBytes > 0 {
		fmt.Printf("  torn tail: %d bytes truncated\n", st.TruncatedBytes)
	}
	if st.BadCheckpoints > 0 {
		fmt.Printf("  %d corrupt checkpoint(s) skipped\n", st.BadCheckpoints)
	}
}

// verifyViews is the recover-and-verify mode: every recovered view must be
// row-for-row identical to a fresh evaluation of its pattern over the
// recovered document.
func verifyViews(db *wal.DB) error {
	e := db.Engine()
	bad := 0
	for _, mv := range e.Views {
		want := algebra.Materialize(e.Doc, mv.Pattern)
		if mv.View.EqualRows(want) {
			fmt.Printf("view %-8s %s  ok (%d rows)\n", mv.Name, mv.Pattern, len(want))
		} else {
			fmt.Printf("view %-8s %s  DIVERGED (%d rows maintained, %d fresh)\n",
				mv.Name, mv.Pattern, mv.View.Len(), len(want))
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d view(s) diverged from fresh evaluation", bad)
	}
	fmt.Printf("all %d view(s) verified against fresh evaluation\n", len(e.Views))
	return nil
}

func printRows(e *core.Engine) {
	for _, mv := range e.Views {
		fmt.Printf("\nview %s: %d rows\n", mv.Name, mv.View.Len())
		for _, r := range mv.View.Rows() {
			fmt.Printf("  count=%d", r.Count)
			for _, en := range r.Entries {
				fmt.Printf("  %s=%v", mv.Pattern.Nodes[en.NodeIdx].Label, en.ID)
				if en.Val != "" {
					fmt.Printf(" val=%q", en.Val)
				}
				if en.Cont != "" {
					c := en.Cont
					if len(c) > 40 {
						c = c[:40] + "…"
					}
					fmt.Printf(" cont=%q", c)
				}
			}
			fmt.Println()
		}
	}
}
