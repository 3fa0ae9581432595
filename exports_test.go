package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNoUnreferencedExports fails when an exported identifier declared in a
// non-test file under internal/ — a package-level func, type, var or const,
// or a method — is referenced nowhere: not by any package of the module
// (non-test files, in-package and external tests) nor by benchmark/*.go. A
// method that satisfies an interface method (String, Error, Unwrap,
// RecordSpan, …) counts as referenced, since it is called through the
// interface.
func TestNoUnreferencedExports(t *testing.T) {
	sc, declared := scanExports(t)
	var unused []string
	for _, obj := range declared {
		if obj.Exported() && !sc.used[objectKey(obj)] && !sc.viaInterface(obj) {
			unused = append(unused, fmt.Sprintf("%s: %s", sc.fset.Position(obj.Pos()), objectKey(obj)))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced nowhere: %s", u)
	}
}

// testOnlyExports is the committed list of exports that only tests
// reference. It may only shrink.
const testOnlyExports = "testdata/test_only_exports.txt"

// TestTestOnlyExportsListed fails when an exported identifier declared in a
// non-test file under internal/ is referenced, but only from _test.go files,
// and testOnlyExports does not list it; or when testOnlyExports lists an
// identifier that is not such an export. Non-test files of the module and
// benchmark/*.go are production callers; a method that satisfies an
// interface counts as called.
func TestTestOnlyExportsListed(t *testing.T) {
	sc, declared := scanExports(t)
	data, err := os.ReadFile(testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			listed[line] = true
		}
	}
	testOnly := map[string]bool{}
	for _, obj := range declared {
		key := objectKey(obj)
		if !obj.Exported() || !sc.used[key] || sc.prodUsed[key] || sc.viaInterface(obj) {
			continue
		}
		testOnly[key] = true
		if !listed[key] {
			t.Errorf("%s: %s is referenced only from tests: delete it with its tests, or give it a production caller",
				sc.fset.Position(obj.Pos()), key)
		}
	}
	for key := range listed {
		if !testOnly[key] {
			t.Errorf("%s lists %s, which is not a test-only export: delete the line", testOnlyExports, key)
		}
	}
}

// TestUnexportedHaveProductionCallers fails when an unexported identifier
// declared in a non-test file under internal/ — a package-level func, type,
// var or const, or a method — has no reference outside _test.go files:
// code only tests call belongs in the tests, and code nothing calls goes.
// A method that satisfies an interface counts as called. There is no
// allowlist.
func TestUnexportedHaveProductionCallers(t *testing.T) {
	sc, declared := scanExports(t)
	var bad []string
	for _, obj := range declared {
		key := objectKey(obj)
		if obj.Exported() || sc.prodUsed[key] || sc.viaInterface(obj) {
			continue
		}
		why := "referenced nowhere"
		if sc.used[key] {
			why = "referenced only from tests"
		}
		bad = append(bad, fmt.Sprintf("%s: %s is %s", sc.fset.Position(obj.Pos()), key, why))
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

var exportScanOnce struct {
	sync.Once
	sc       *exportScan
	declared []types.Object
	err      error
}

// scanExports type-checks the whole module once per test binary and returns
// the scan with the package-level objects and methods, exported or not,
// declared in non-test files under internal/.
func scanExports(t *testing.T) (*exportScan, []types.Object) {
	t.Helper()
	s := &exportScanOnce
	s.Do(func() { s.sc, s.declared, s.err = runExportScan() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.sc, s.declared
}

func runExportScan() (*exportScan, []types.Object, error) {
	sc := newExportScan()
	var dirs []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		switch d.Name() {
		case "benchmark", "testdata", "bin":
			return fs.SkipDir
		}
		if strings.HasPrefix(d.Name(), ".") && dir != "." {
			return fs.SkipDir
		}
		dirs = append(dirs, dir)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var declared []types.Object
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			continue
		} else if err != nil {
			return nil, nil, err
		}
		path := "r2c"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		files, err := sc.parse(dir, append(bp.GoFiles, bp.TestGoFiles...))
		if err != nil {
			return nil, nil, err
		}
		pkg, err := sc.check(path, files, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		if strings.HasPrefix(path, "r2c/internal/") {
			declared = append(declared, sc.decls(pkg, files[:len(bp.GoFiles)])...)
		}
		if len(bp.XTestGoFiles) > 0 {
			// The type errors an external test package can hit (identity
			// mismatches between test and non-test builds of one package,
			// which go vet avoids with test variants) are ignored here:
			// every use that did resolve is recorded.
			files, err := sc.parse(dir, bp.XTestGoFiles)
			if err != nil {
				return nil, nil, err
			}
			sc.check(path+"_test", files, func(error) {})
		}
	}
	bench, err := filepath.Glob("benchmark/*.go")
	if err != nil {
		return nil, nil, err
	}
	files, err := sc.parse("", bench)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sc.check("r2c/benchmark", files, nil); err != nil {
		return nil, nil, fmt.Errorf("benchmark: %v", err)
	}
	if err := sc.stdInterfaces(); err != nil {
		return nil, nil, err
	}
	return sc, declared, nil
}

// exportScan type-checks the module's packages and records every use and
// every interface type it meets. It is the importer of the packages it
// checks: a module package resolves to one check of its non-test files, the
// standard library to the source importer.
type exportScan struct {
	fset     *token.FileSet
	std      types.ImporterFrom
	pkgs     map[string]*types.Package // module packages by import path
	used     map[string]bool           // objectKey of every use
	prodUsed map[string]bool           // objectKey of every use outside _test.go files
	ifces    []*types.Interface
}

func newExportScan() *exportScan {
	fset := token.NewFileSet()
	return &exportScan{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:     map[string]*types.Package{},
		used:     map[string]bool{},
		prodUsed: map[string]bool{},
	}
}

func (sc *exportScan) Import(path string) (*types.Package, error) {
	return sc.ImportFrom(path, "", 0)
}

func (sc *exportScan) ImportFrom(path, _ string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "r2c/")
	if !ok {
		// Resolving from inside GOROOT keeps go/build in-process.
		return sc.std.ImportFrom(path, filepath.Join(runtime.GOROOT(), "src"), mode)
	}
	bp, err := build.ImportDir(rel, 0)
	if err != nil {
		return nil, err
	}
	return sc.load(path, rel, bp)
}

// load checks a module package's non-test files once, for its importers.
func (sc *exportScan) load(path, dir string, bp *build.Package) (*types.Package, error) {
	if pkg, ok := sc.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	sc.pkgs[path] = nil
	files, err := sc.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := sc.check(path, files, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.pkgs[path] = pkg
	return pkg, nil
}

// check type-checks files as package path and records its uses and
// interface types. A nil onErr stops at the first type error.
func (sc *exportScan) check(path string, files []*ast.File, onErr func(error)) (*types.Package, error) {
	conf := types.Config{Importer: sc, Error: onErr}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := conf.Check(path, sc.fset, files, info)
	if err != nil && onErr == nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		key := objectKey(obj)
		sc.used[key] = true
		if !strings.HasSuffix(sc.fset.Position(id.Pos()).Filename, "_test.go") {
			sc.prodUsed[key] = true
		}
	}
	sc.addInterfaces(info)
	return pkg, nil
}

// stdInterfaces records the interface types, named or literal, of the
// standard-library packages the module imports directly: errors.Is and
// errors.As, for one, find Unwrap through an anonymous interface.
func (sc *exportScan) stdInterfaces() error {
	direct := map[string]bool{}
	for _, pkg := range sc.pkgs {
		for _, imp := range pkg.Imports() {
			if !strings.HasPrefix(imp.Path(), "r2c/") {
				direct[imp.Path()] = true
			}
		}
	}
	gorootSrc := filepath.Join(runtime.GOROOT(), "src")
	for path := range direct {
		bp, err := build.Import(path, gorootSrc, 0)
		if err != nil {
			return err
		}
		files, err := sc.parse(bp.Dir, bp.GoFiles)
		if err != nil {
			return err
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: sc.std, Error: func(error) {}}
		conf.Check(path, sc.fset, files, info)
		sc.addInterfaces(info)
	}
	return nil
}

func (sc *exportScan) addInterfaces(info *types.Info) {
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			sc.ifces = append(sc.ifces, it)
		}
	}
}

// viaInterface reports whether obj is a method that lets its receiver type
// satisfy an interface the scan recorded.
func (sc *exportScan) viaInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range sc.ifces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				return true
			}
		}
	}
	return false
}

// decls returns the package-level objects and methods pkg declares in the
// given (non-test) files.
func (sc *exportScan) decls(pkg *types.Package, files []*ast.File) []types.Object {
	inSrc := map[string]bool{}
	for _, f := range files {
		inSrc[sc.fset.Position(f.Pos()).Filename] = true
	}
	var out []types.Object
	add := func(obj types.Object) {
		if inSrc[sc.fset.Position(obj.Pos()).Filename] {
			out = append(out, obj)
		}
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		add(obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					add(named.Method(i))
				}
			}
		}
	}
	return out
}

// objectKey names obj independently of which type-check produced it:
// "path.Name" for package-level objects, "path.Type.Method" for methods,
// and "" for anything else (locals, fields, interface methods).
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (sc *exportScan) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		abs, err := filepath.Abs(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if files[i], err = parser.ParseFile(sc.fset, abs, nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	return files, nil
}
