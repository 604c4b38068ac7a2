package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xivm/internal/obs"
	"xivm/internal/wal"
)

// TestModeRefusesFlagsItDoesNotRead: a flag set on the command line that the
// selected mode never reads fails the run, naming the flag and the mode,
// before anything is opened or served. Flags the mode does read pass the
// check; those runs then fail on the missing document or a bad value.
func TestModeRefusesFlagsItDoesNotRead(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.xml")
	one := filepath.Join(dir, "one.xml")
	if err := os.WriteFile(one, []byte("<a/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	const leader, addr = "http://127.0.0.1:1", "127.0.0.1:0"
	for _, tc := range []struct {
		args       []string
		flag, mode string // both empty: the mode reads every flag given
		err        string // otherwise, the later failure
	}{
		{args: []string{"-listen", addr, "-doc", missing, "-verify-recovery"}, flag: "-verify-recovery", mode: "-listen"},
		{args: []string{"-listen", addr, "-doc", missing, "-rows"}, flag: "-rows", mode: "-listen"},
		{args: []string{"-listen", addr, "-doc", missing, "-stats"}, flag: "-stats", mode: "-listen"},
		{args: []string{"-listen", addr, "-doc", missing, "-metrics", "json"}, flag: "-metrics", mode: "-listen"},
		{args: []string{"-listen", addr, "-doc", missing, "-engine", "full"}, flag: "-engine", mode: "-listen"},
		{args: []string{"-data-dir", dir, "-doc", missing, "-engine", "incr"}, flag: "-engine", mode: "-data-dir"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-engine", "incr"}, flag: "-engine", mode: "-verify-recovery"},
		{args: []string{"-data-dir", dir, "-doc", missing, "-max-batch", "1"}, flag: "-max-batch", mode: "-data-dir"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-rows"}, flag: "-rows", mode: "-verify-recovery"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-pattern", "V=//a{ID}"}, flag: "-pattern", mode: "-verify-recovery"},
		{args: []string{"-doc", missing, "-db", "shop"}, flag: "-db", mode: "batch"},
		{args: []string{"-doc", missing, "-fsync", "never"}, flag: "-fsync", mode: "batch"},
		{args: []string{"-doc", missing, "-queue-depth", "8"}, flag: "-queue-depth", mode: "batch"},
		{args: []string{"-follow", leader, "-listen", addr, "-doc", missing}, flag: "-doc", mode: "-follow"},
		{args: []string{"-follow", leader, "-listen", addr, "-data-dir", dir}, flag: "-data-dir", mode: "-follow"},
		{args: []string{"-follow", leader, "-listen", addr, "-request-timeout", "1s", "insert <b/> into /a"},
			flag: "-request-timeout", mode: "-follow"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-fsync", "bogus"}, flag: "-fsync", mode: "-verify-recovery"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-fsync-interval", "1ms"}, flag: "-fsync-interval", mode: "-verify-recovery"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-checkpoint-every", "8"}, flag: "-checkpoint-every", mode: "-verify-recovery"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-doc", missing}, flag: "-doc", mode: "-verify-recovery"},

		{args: []string{"-doc", missing, "-pattern", "V=//a{ID}", "-engine", "ivma",
			"-rows", "-stats", "-metrics", "json"}, err: "missing.xml"},
		{args: []string{"-data-dir", dir, "-doc", missing, "-db", "shop", "-pattern", "V=//a{ID}", "-fsync", "never",
			"-fsync-interval", "1ms", "-checkpoint-every", "8", "-rows", "-stats", "-metrics", "json"}, err: "missing.xml"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-db", "shop"}, err: "holds no checkpoint"},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-policy", "snowcaps"}, err: "flag provided but not defined: -policy"},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-engine", "lazy"}, err: `unknown engine "lazy"`},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-save", dir}, err: "flag provided but not defined: -save"},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-load", dir}, err: "flag provided but not defined: -load"},
		{args: []string{"-listen", addr, "-doc", missing, "-data-dir", dir, "-pattern", "V=//a{ID}", "-queue-depth", "8",
			"-max-batch", "1", "-request-timeout", "1s", "-drain-timeout", "1s"}, err: "missing.xml"},
		{args: []string{"-follow", leader, "-listen", addr, "-drain-timeout", "1s", "insert <b/> into /a"},
			err: "-follow accepts no statements"},
	} {
		err := xivm(context.Background(), tc.args...)
		if err == nil {
			t.Errorf("%q: ran to completion", tc.args)
			continue
		}
		if tc.flag != "" {
			if want := tc.flag + " is not read in " + tc.mode + " mode"; err.Error() != want {
				t.Errorf("%q: %v, want %q", tc.args, err, want)
			}
		} else if strings.Contains(err.Error(), "is not read in") || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%q: %v, want the run to fail on %q", tc.args, err, tc.err)
		}
	}
}

// TestDataDirIsATenantRootInEveryMode: a -data-dir that is itself a database
// (what wal.Create writes, the layout from before tenant roots) is refused
// with wal.ScanTenantRoot's error whichever mode opens it. -data-dir and
// -verify-recovery open only <data-dir>/<db>: they neither clean up the rest
// of the root, as -listen's scan does, nor create a missing root.
func TestDataDirIsATenantRootInEveryMode(t *testing.T) {
	root := t.TempDir()
	db, err := wal.Create(root, []byte("<a/>"), wal.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, want := wal.ScanTenantRoot(nil, root)
	if want == nil {
		t.Fatal("ScanTenantRoot accepted a database directory as a tenant root")
	}
	for _, args := range [][]string{
		{"-data-dir", root},
		{"-data-dir", root, "-verify-recovery"},
		{"-listen", "127.0.0.1:0", "-data-dir", root},
	} {
		if err := xivm(context.Background(), args...); err == nil || err.Error() != want.Error() {
			t.Errorf("%q: %v, want %q", args, err, want)
		}
	}

	root = t.TempDir()
	doc := filepath.Join(root, "a.xml")
	if err := os.WriteFile(doc, []byte("<a><b/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checkpoint-less directory with a tenant's name and a drop
	// tombstone: the debris a -listen scan would remove.
	kept := []string{filepath.Join(root, "docs"), filepath.Join(root, ".drop-old")}
	for _, d := range kept {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := xivm(context.Background(), "-data-dir", root, "-verify-recovery"); err == nil || !strings.Contains(err.Error(), "holds no checkpoint") {
		t.Errorf("-verify-recovery before any database: %v", err)
	}
	if err := xivm(context.Background(), "-data-dir", root, "-doc", doc, "-pattern", "V=//b{ID}"); err != nil {
		t.Fatal(err)
	}
	if err := xivm(context.Background(), "-data-dir", root, "-verify-recovery"); err != nil {
		t.Fatal(err)
	}
	for _, d := range kept {
		if _, err := os.Stat(d); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
	missing := filepath.Join(root, "missing")
	for _, args := range [][]string{
		{"-data-dir", missing},
		{"-data-dir", missing, "-verify-recovery"},
	} {
		if err := xivm(context.Background(), args...); err == nil || !strings.Contains(err.Error(), "holds no checkpoint") {
			t.Errorf("%q: %v, want a missing database", args, err)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Errorf("%q created the missing root: %v", args, err)
		}
	}
}

// xivm runs the command with args until ctx ends, its usage output
// discarded.
func xivm(ctx context.Context, args ...string) error {
	fs := flag.NewFlagSet("xivm", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return run(ctx, fs, args)
}
