// Package srccheck type-checks Go source against this module's packages
// without invoking the go tool.
//
// The CGO 2020 paper guarantees that generated code "is free of syntax
// errors and type-checks". For the Java original, the Eclipse JDT provided
// that check; here go/parser and go/types do. Because generated code
// imports module-local packages (cognicryptgen/gca, cognicryptgen/gen/...)
// that the standard source importer cannot resolve in module mode, this
// package implements a module-aware source importer: module-local import
// paths are parsed and type-checked from the source tree, everything else
// is resolved through go/build and type-checked from GOROOT source.
//
// All type-checked packages live in a process-wide shared Universe keyed
// by module root (see universe.go): the first Checker in a process pays
// the one-time cost of importing the crypto façade's transitive closure,
// every later Checker constructs in microseconds, and concurrent imports
// are both safe and deduplicated.
package srccheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// ModulePath is this module's path as declared in go.mod.
const ModulePath = "cognicryptgen"

// ModuleRoot locates the module root by walking up from dir (or the
// working directory when dir is empty) until a go.mod declaring ModulePath
// is found.
func ModuleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(data), "module "+ModulePath) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("srccheck: module root for %q not found", ModulePath)
		}
		dir = parent
	}
}

// Importer resolves import paths for go/types against the process-wide
// shared Universe of its module root. It is safe for concurrent use by any
// number of goroutines: concurrent Import calls for the same path
// deduplicate onto one build (the rest wait on a per-path latch and
// receive the same *types.Package), and calls for different paths build in
// parallel. All Importers of one module root share one cache, so the
// type-checked packages they return are pointer-identical across
// Importers; TestConcurrentImport pins both properties under the race
// detector.
type Importer struct {
	u *Universe
}

// NewImporter returns an importer over the shared universe of the module
// rooted at root. Positions are recorded in the universe's FileSet (see
// Fset); packages already built by any other Importer or Checker of the
// same root are reused, not re-type-checked.
func NewImporter(root string) *Importer {
	return &Importer{u: SharedUniverse(root)}
}

// Fset returns the shared FileSet positions resolve against.
func (imp *Importer) Fset() *token.FileSet { return imp.u.Fset() }

// Import implements types.Importer.
func (imp *Importer) Import(path string) (*types.Package, error) {
	return imp.u.Import(path)
}

// ImportFrom implements types.ImporterFrom; srcDir anchors vendor-aware
// resolution of non-module paths.
func (imp *Importer) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if srcDir == "" {
		srcDir = imp.u.root
	}
	return imp.u.importFrom(path, srcDir, nil)
}

// Checker type-checks in-memory Go sources against the module.
//
// A Checker is safe for concurrent use: its FileSet is the universe's
// shared, internally synchronized FileSet, and imports resolve through the
// concurrency-safe universe. Each Check call builds its own types.Info.
type Checker struct {
	Fset *token.FileSet
	u    *Universe
}

// NewChecker returns a checker rooted at the module containing dir ("" =
// working directory). The first Checker of a module root in a process pays
// for the imports it triggers; every subsequent Checker shares the
// already-built universe and constructs in microseconds.
func NewChecker(dir string) (*Checker, error) {
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	u := SharedUniverse(root)
	return &Checker{Fset: u.fset, u: u}, nil
}

// ImportPackage loads and type-checks a package by import path.
func (c *Checker) ImportPackage(path string) (*types.Package, error) {
	return c.u.Import(path)
}

// importer returns a fresh types.Importer view over the universe (fresh
// cycle-detection chain per checked file set).
func (c *Checker) importer() types.ImporterFrom {
	return &chainImporter{u: c.u, srcDir: c.u.root}
}

// CheckDir parses and type-checks all non-test Go files of the package in
// dir, returning the files and the shared type info. The caller releases
// the files (see Release) once it has resolved their positions; on error
// they are already released.
func (c *Checker) CheckDir(dir string) ([]*ast.File, *types.Package, *types.Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("srccheck: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		files = append(files, f)
		if err != nil {
			c.Release(files...)
			return nil, nil, nil, fmt.Errorf("srccheck: parsing %s: %w", name, err)
		}
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("srccheck: no Go files in %s", dir)
	}
	info := newInfo()
	pkg, err := c.typeCheck(files, info)
	if err != nil {
		c.Release(files...)
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// CheckPackageWith type-checks the Go package in dir together with one
// additional in-memory file (filename/src), as if the file had been saved
// into the directory. Test files are ignored. An empty or non-existent
// directory degrades to checking the new file alone. Every file it parses
// is released before it returns.
func (c *Checker) CheckPackageWith(dir, filename, src string) error {
	extra, err := parser.ParseFile(c.Fset, filename, src, parser.SkipObjectResolution)
	files := []*ast.File{extra}
	defer func() { c.Release(files...) }()
	if err != nil {
		return fmt.Errorf("srccheck: parse %s: %w", filename, err)
	}
	entries, err := os.ReadDir(dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(c.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			files = append(files, f)
			if err != nil {
				return fmt.Errorf("srccheck: parsing existing %s: %w", name, err)
			}
			if f.Name.Name != extra.Name.Name {
				return fmt.Errorf("srccheck: package mismatch: %s declares %q, new file declares %q", name, f.Name.Name, extra.Name.Name)
			}
		}
	}
	_, err = c.typeCheck(files, nil)
	return err
}

// PackageNameOf reports the package name declared by the Go files in dir,
// or "" when the directory has none.
func PackageNameOf(dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly)
		if err != nil {
			continue
		}
		return f.Name.Name
	}
	return ""
}

// CheckSource parses and type-checks a single in-memory Go file named
// filename containing src. It returns the parsed file, its package, and
// the type info. The caller releases the file (see Release) once it has
// resolved its positions; on error the file is already released.
func (c *Checker) CheckSource(filename, src string) (*ast.File, *types.Package, *types.Info, error) {
	info := newInfo()
	f, pkg, err := c.checkOne(filename, src, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return f, pkg, info, nil
}

// Verify type-checks src as CheckSource does but records no type info and
// keeps nothing: its file leaves the FileSet before Verify returns. Every
// check still runs; only the info maps no caller would read are skipped.
func (c *Checker) Verify(filename, src string) error {
	f, _, err := c.checkOne(filename, src, nil)
	c.Release(f)
	return err
}

// Release drops files from the shared FileSet. Every parse adds a file to
// that set, so a long-lived process that checks a stream of sources must
// release each one or the set grows without bound. Positions of a released
// file no longer resolve: release only after every position and error
// string the caller needs has been formatted. Releasing nil or an already
// released file is a no-op.
func (c *Checker) Release(files ...*ast.File) {
	for _, f := range files {
		if f == nil {
			continue
		}
		if tf := c.Fset.File(f.FileStart); tf != nil {
			c.Fset.RemoveFile(tf)
		}
	}
}

// checkOne parses and type-checks one file, recording into info (nil =
// none). On error the file is already released.
func (c *Checker) checkOne(filename, src string, info *types.Info) (*ast.File, *types.Package, error) {
	f, err := parser.ParseFile(c.Fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		c.Release(f)
		return nil, nil, fmt.Errorf("srccheck: parse: %w", err)
	}
	pkg, err := c.typeCheck([]*ast.File{f}, info)
	if err != nil {
		c.Release(f)
		return nil, nil, err
	}
	return f, pkg, nil
}

// typeCheck type-checks files as one package. The error text is formatted
// here, while the files' positions still resolve, so it survives their
// release.
func (c *Checker) typeCheck(files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: c.importer(),
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(files[0].Name.Name, c.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("srccheck: type errors: %w", errors.Join(errs...))
	}
	if err != nil {
		return nil, fmt.Errorf("srccheck: type errors: %w", err)
	}
	return pkg, nil
}

// newInfo returns a types.Info recording everything the generator and the
// analyzer read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
