package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"xivm/internal/client"
	"xivm/internal/pattern"
	"xivm/internal/repl"
	"xivm/internal/server"
	"xivm/internal/update"
	"xivm/internal/view"
)

// runListen is the -listen mode: it builds the tenant registry cfg
// describes (durable when cfg.DataDir is set — a tenant root holding one WAL
// directory per database — in-memory otherwise), recovers every surviving
// tenant, bootstraps tenant name from cfg.DefaultDoc when missing, applies
// any trailing statements to it, then serves the multi-tenant HTTP API on
// addr until ctx is cancelled by a signal. Shutdown is a graceful drain
// within drainTimeout: the listener finishes in-flight HTTP requests, every
// tenant's apply loop drains every accepted update, and every backend syncs
// (flushing its WAL group-commit window) before exit.
func runListen(ctx context.Context, cfg server.RegistryConfig, name, addr string, drainTimeout time.Duration, statements []string) error {
	if cfg.DataDir == "" && cfg.DefaultDoc == "" {
		return fmt.Errorf("-doc is required (or -data-dir to reopen durable databases)")
	}
	reg, err := server.NewRegistry(cfg)
	if err != nil {
		return err
	}
	shutdownReg := func(dctx context.Context) {
		if err := reg.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "xivm: registry drain:", err)
		}
	}
	for _, st := range reg.Stats() {
		fmt.Printf("db %-12s (recovered: epoch %d, %d views, %d rows)\n", st.Name, st.Version, st.Views, st.Rows)
	}

	// Bootstrap the -db tenant (the one trailing statements address) when it
	// does not exist yet. One that exists but could not be opened stays
	// stopped, and the others are served.
	if _, err := reg.Get(name); errors.Is(err, server.ErrNoSuchTenant) {
		if cfg.DefaultDoc == "" {
			if len(reg.Names()) == 0 {
				shutdownReg(ctx)
				return fmt.Errorf("no databases recovered from %s (pass -doc to create %q)", cfg.DataDir, name)
			}
		} else {
			sh, err := reg.Create(name, "", nil)
			if err != nil {
				shutdownReg(ctx)
				return err
			}
			snap := sh.Epoch()
			fmt.Printf("db %-12s (created: %d views)\n", name, len(snap.Views))
		}
	}

	for _, stmt := range statements {
		st, err := update.Parse(stmt)
		if err != nil {
			shutdownReg(ctx)
			return err
		}
		sh, err := reg.Get(name)
		if err != nil {
			shutdownReg(ctx)
			return err
		}
		if _, version, err := sh.Apply(ctx, st); err != nil {
			shutdownReg(ctx)
			return fmt.Errorf("apply %q: %w", stmt, err)
		} else {
			fmt.Printf(">> [%s] %s  (version %d)\n", name, stmt, version)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		shutdownReg(ctx)
		return err
	}
	hs := &http.Server{Handler: reg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("serving multi-tenant API on %s (%d databases)\n", ln.Addr(), len(reg.Names()))

	select {
	case err := <-serveErr:
		shutdownReg(ctx)
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down: draining requests and apply queues…")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "xivm: http drain:", err)
	}
	shutdownReg(dctx)
	for _, st := range reg.Stats() {
		fmt.Printf("db %-12s drained at epoch %d\n", st.Name, st.Version)
	}
	return nil
}

// runFollow is the -follow mode: a read-only follower of cfg.FollowerOf. It
// builds the follower registry cfg describes (no data dir — the leader owns
// the durable state), starts a replication fleet that discovers the leader's
// tenants and tails each one (snapshot-first catch-up, then WAL-frame
// streaming with CRC re-verification) into replicas built with the
// registry's own engine options, and serves every read endpoint on addr at
// the applied LSN. Writes are rejected with 403 read_only pointing at the
// leader. Shutdown stops the HTTP listener, then the tailers.
func runFollow(ctx context.Context, cfg server.RegistryConfig, addr string, drainTimeout time.Duration) error {
	reg, err := server.NewRegistry(cfg)
	if err != nil {
		return err
	}

	fctx, fcancel := context.WithCancel(context.Background())
	fleet := repl.NewFleet(client.New(cfg.FollowerOf), reg, repl.Options{})
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		_ = fleet.Run(fctx)
	}()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fcancel()
		<-fleetDone
		return err
	}
	hs := &http.Server{Handler: reg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("serving read-only follower API on %s (leader %s)\n", ln.Addr(), cfg.FollowerOf)

	var srvErr error
	select {
	case srvErr = <-serveErr:
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down: draining requests and stopping tailers…")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "xivm: http drain:", err)
	}
	fcancel()
	<-fleetDone
	if err := reg.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "xivm: registry drain:", err)
	}
	for _, st := range reg.Stats() {
		fmt.Printf("db %-12s stopped at applied lsn %d (epoch %d)\n", st.Name, st.AppliedLSN, st.Version)
	}
	return srvErr
}

type namedPattern struct {
	name string
	p    *pattern.Pattern
}

// compileViewSpecs resolves -view (conjunctive XQuery dialect) and
// -pattern (tree pattern) declarations to named patterns.
func compileViewSpecs(views, patterns []string) ([]namedPattern, error) {
	var out []namedPattern
	add := func(spec string, compile func(string) (*pattern.Pattern, error)) error {
		name, src, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("view spec %q must be NAME=DEFINITION", spec)
		}
		p, err := compile(src)
		if err != nil {
			return fmt.Errorf("view %s: %w", name, err)
		}
		out = append(out, namedPattern{name: name, p: p})
		return nil
	}
	for _, spec := range views {
		if err := add(spec, func(src string) (*pattern.Pattern, error) {
			def, err := view.Compile(src)
			if err != nil {
				return nil, err
			}
			return def.Pattern, nil
		}); err != nil {
			return nil, err
		}
	}
	for _, spec := range patterns {
		if err := add(spec, pattern.Parse); err != nil {
			return nil, err
		}
	}
	return out, nil
}
