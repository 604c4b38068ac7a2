package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

		{args: []string{"-doc", missing, "-pattern", "V=//a{ID}", "-policy", "leaves", "-engine", "ivma",
			"-rows", "-stats", "-metrics", "json"}, err: "missing.xml"},
		{args: []string{"-data-dir", dir, "-doc", missing, "-db", "shop", "-pattern", "V=//a{ID}", "-fsync", "never",
			"-fsync-interval", "1ms", "-checkpoint-every", "8", "-rows", "-stats", "-metrics", "json"}, err: "missing.xml"},
		{args: []string{"-data-dir", dir, "-verify-recovery", "-doc", missing, "-fsync", "bogus"}, err: "bogus"},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-policy", "cost"}, err: `unknown policy "cost"`},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-engine", "lazy"}, err: `unknown engine "lazy"`},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-save", dir}, err: "flag provided but not defined: -save"},
		{args: []string{"-doc", one, "-pattern", "V=//a{ID}", "-load", dir}, err: "flag provided but not defined: -load"},
		{args: []string{"-listen", addr, "-doc", missing, "-data-dir", dir, "-pattern", "V=//a{ID}", "-queue-depth", "8",
			"-max-batch", "1", "-request-timeout", "1s", "-drain-timeout", "1s"}, err: "missing.xml"},
		{args: []string{"-follow", leader, "-listen", addr, "-policy", "bogus", "-request-timeout", "1s",
			"-drain-timeout", "1s"}, err: "bogus"},
	} {
		fs := flag.NewFlagSet("xivm", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := run(fs, tc.args)
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
