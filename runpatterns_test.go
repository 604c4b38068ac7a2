package xivm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRunPatternsNameTests: every |-separated alternative of a -run or
// -fuzz pattern in the CI workflow and in the skill notes (the verify
// recipe among them) matches the name of some func Test… or func Fuzz… in
// the repository. go test passes when a pattern matches nothing, so a
// deleted or renamed test would otherwise drop out of a step silently.
func TestRunPatternsNameTests(t *testing.T) {
	names := testNames(t)
	notes, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(notes) == 0 {
		t.Fatalf("no skill notes found (%v)", err)
	}
	flagRE := regexp.MustCompile(`-(?:run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)
	for _, file := range append([]string{".github/workflows/ci.yml"}, notes...) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagRE.FindAllStringSubmatch(string(src), -1) {
			top, _, _ := strings.Cut(m[1]+m[2]+m[3], "/") // subtest levels are not checked
			for _, alt := range strings.Split(top, "|") {
				if alt == "^$" {
					continue // runs no test on purpose, beside -fuzz
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: %q: %v", file, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: %q matches no test or fuzz target", file, alt)
				}
			}
		}
	}
}

// testNames returns the name of every func Test… and func Fuzz… declared
// in a _test.go file of the repository.
func testNames(t *testing.T) []string {
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range declRE.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
