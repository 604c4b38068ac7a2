package xivm

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// productionExceptions names the exported identifiers under internal/ that
// may have no caller in non-test Go. A key is a package path (every export
// of the package) or a package path, a dot and a name (a type's name covers
// its methods; Type.Method names one); the value is the reason. Only two kinds belong here: the
// test-support package, and test instruments that tests of other packages
// read and that cannot move to test code without an import cycle.
var productionExceptions = map[string]string{
	"xivm/internal/difftest":        "the test-support package: harnesses, workloads and shrinkers that tests of several packages share",
	"xivm/internal/difftest/oracle": "the interpreted XPath evaluator and the random generators; a package apart because the in-package tests of qvm, update and xmark import it, and internal/difftest imports those packages",

	"xivm/internal/dewey.NewRoot":                "tests of algebra, dewey, server, store and xmltree make IDs without a document; a document's IDs come from xmltree",
	"xivm/internal/obs.CollectTracer":            "tests of core read the spans an engine opened; the Tracer interface is obs's, and core's in-package tests cannot import difftest",
	"xivm/internal/obs.TracerFunc":               "tests of core, repl, server and wal arm a fault or a count at a named span",
	"xivm/internal/obs.Histogram.Count":          "tests of core and repl read one histogram's count; its fields are obs's own",
	"xivm/internal/obs.Histogram.Sum":            "tests of core read one histogram's sum; its fields are obs's own",
	"xivm/internal/obs.Metrics.CounterValue":     "tests of core, repl, server and wal read one counter by name without registering it",
	"xivm/internal/wal.NewFailFS":                "tests of server inject disk faults under a registry; the FS interface and the log's file calls are wal's",
	"xivm/internal/wal.FailFS":                   "NewFailFS's type: the same tests count the file operations it saw (Ops)",
	"xivm/internal/xmltree.CheckPayload":         "internal/difftest checks every node's payload layout after each statement; the layout is xmltree's own",
	"xivm/internal/xmltree.Document.CopiedNodes": "tests of core and xpath count the nodes an epoch copied; the count is the document's own field",
	"xivm/internal/xmltree.LabelWalks":           "tests of wal count the label-index walks a recovery makes; the counter is xmltree's own",
	"xivm/internal/xmltree.NewNode":              "tests of server and xpath build trees node by node; a node's label code is xmltree's own",
}

// TestExportsHaveProductionCallers: every exported identifier of a package
// under internal/ has a caller in the non-test Go of the root module or of
// the benchmark module, satisfies an interface, or is named in
// productionExceptions. A capability only tests reach belongs in a _test.go
// file or in internal/difftest.
func TestExportsHaveProductionCallers(t *testing.T) {
	uncalled, err := uncalledExports([]string{".", "benchmark"}, productionExceptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		t.Errorf("%s: exported, but no non-test Go calls it: delete it, move it to test code, or name it in productionExceptions with the reason", name)
	}
}

// TestUncalledExportsFixture: over a fixture with one uncalled export, one
// method only an interface reaches and one excepted name, the scan reports
// exactly the first; and a type error fails the scan instead of shrinking
// what it sees.
func TestUncalledExportsFixture(t *testing.T) {
	except := map[string]string{"fixture/internal/a.Instrument": "excepted in the fixture"}
	got, err := uncalledExports([]string{"testdata/exports"}, except)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture/internal/a.Uncalled"}; !slices.Equal(got, want) {
		t.Errorf("uncalled exports = %q, want %q", got, want)
	}
	if _, err := uncalledExports([]string{"testdata/exports_broken"}, nil); err == nil || !strings.Contains(err.Error(), "b.go") {
		t.Errorf("a module that does not type-check scanned with error %v, want its type error", err)
	}
}

// uncalledExports type-checks the non-test Go of the modules rooted at
// roots and returns, sorted, every exported identifier declared under an
// internal/ directory that no non-test Go of those modules references, that
// satisfies no interface method, and that except does not name. Any type
// error, and any key of except that names nothing uncalled, is an error.
func uncalledExports(roots []string, except map[string]string) ([]string, error) {
	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*types.Package{}, used: map[types.Object]bool{}}
	l.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	l.ctxt = build.Default
	l.ctxt.CgoEnabled = false
	for _, root := range roots {
		if err := l.addModule(root); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	if len(l.errs) > 0 {
		return nil, errors.Join(l.errs...)
	}

	var uncalled []string
	matched := map[string]bool{}
	report := func(pkg, name string, obj types.Object) {
		if l.used[obj] {
			return
		}
		typ, _, _ := strings.Cut(name, ".")
		for _, key := range []string{pkg, pkg + "." + typ, pkg + "." + name} {
			if _, ok := except[key]; ok {
				matched[key] = true
				return
			}
		}
		uncalled = append(uncalled, pkg+"."+name)
	}
	for _, p := range paths {
		if !slices.Contains(strings.Split(p, "/"), "internal") {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(p, name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.satisfiesInterface(named, m.Name()) {
					report(p, name+"."+m.Name(), m)
				}
			}
		}
	}
	for key := range except {
		if !matched[key] {
			return nil, fmt.Errorf("productionExceptions names %s, which is not an uncalled export (it has a caller or is gone): drop the entry", key)
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// origin maps an object of an instantiated generic type or function to the
// object declared in the source.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// A loader type-checks packages from source: those of the scanned modules
// from their directories, the standard library from GOROOT. It keeps what
// the scanned packages reference and every interface type any package
// declares or writes, bodies included (errors.Is reaches an Is method
// through an interface literal).
type loader struct {
	fset   *token.FileSet
	ctxt   build.Context
	dirs   map[string]string // import path → directory, for the scanned modules
	pkgs   map[string]*types.Package
	used   map[types.Object]bool // referenced by the scanned packages, receivers aside
	ifaces []*types.Interface
	errs   []error
}

// addModule maps every package directory of the module at root to its
// import path. Directories named testdata or holding their own go.mod are
// not part of the module.
func (l *loader) addModule(root string) error {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		l.dirs[path.Join(module, filepath.ToSlash(rel))] = dir
		return nil
	})
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *loader) ImportFrom(importPath, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	dir, scanned := l.dirs[importPath]
	if !scanned {
		bp, err := l.ctxt.Import(importPath, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		importPath, dir = bp.ImportPath, bp.Dir
	}
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		var none *build.NoGoError
		if errors.As(err, &none) && scanned {
			l.pkgs[importPath] = types.NewPackage(importPath, "")
			return l.pkgs[importPath], nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if scanned {
		info.Uses = map[*ast.Ident]types.Object{}
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", l.ctxt.GOARCH),
		Error:    func(err error) { l.errs = append(l.errs, err) },
	}
	pkg, _ := conf.Check(importPath, l.fset, files, info)
	l.pkgs[importPath] = pkg
	if scanned {
		// A method's receiver names its type without using it.
		recv := map[*ast.Ident]bool{}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range info.Uses {
			if !recv[id] {
				l.used[origin(obj)] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if iface, ok := info.Types[it].Type.(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
					l.ifaces = append(l.ifaces, iface)
				}
			}
			return true
		})
	}
	return pkg, nil
}

// satisfiesInterface reports whether method name of named (or of a pointer
// to it) is a method of some interface type that the type implements.
func (l *loader) satisfiesInterface(named *types.Named, name string) bool {
	if types.IsInterface(named) {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range l.ifaces {
		if hasMethod(iface, name) && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
