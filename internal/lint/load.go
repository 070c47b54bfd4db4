package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for Lint.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// prog is the Program this package was loaded into: whole-module
	// for Loader.LoadAll, single-package for LoadDir.
	prog *Program
}

// Lint runs the analyzers over the package, with interprocedural
// analyses scoped to the Program the package was loaded into.
func (p *Package) Lint(analyzers []*Analyzer) ([]Finding, error) {
	if p.prog == nil {
		p.prog = NewProgram(p)
	}
	return runPackageInProgram(p.prog, p, analyzers)
}

// Program returns the Program the package was loaded into, building a
// single-package one on first use (as Lint does).
func (p *Package) Program() *Program {
	if p.prog == nil {
		p.prog = NewProgram(p)
	}
	return p.prog
}

// The loader resolves imports without the go command or a module cache:
// module-local paths map onto repository directories, and standard
// library packages are type-checked from GOROOT source by the stdlib
// "source" importer. One process-wide fset and source importer are
// shared so the (expensive) stdlib type-checking is paid once across
// every Loader and test in the process.
var (
	sharedFset    = token.NewFileSet()
	sharedStd     types.Importer
	sharedStdOnce sync.Once
)

func stdImporter() types.Importer {
	sharedStdOnce.Do(func() {
		// The source importer consults build.Default; cgo-flavored files
		// cannot be type-checked from source, so force the pure-Go file
		// set (the same one used for cross-compilation).
		build.Default.CgoEnabled = false
		sharedStd = importer.ForCompiler(sharedFset, "source", nil)
	})
	return sharedStd
}

// A Loader loads and type-checks the packages of one module rooted at
// RootDir, offline.
type Loader struct {
	RootDir    string
	modulePath string
	fset       *token.FileSet
	ctxt       build.Context

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// NewLoader prepares a loader for the module rooted at dir (which must
// contain a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	stdImporter() // ensure build.Default is configured before ImportDir use
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		RootDir:    abs,
		modulePath: modPath,
		fset:       sharedFset,
		ctxt:       ctxt,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadAll loads every package under the module root (the ./... set),
// returned sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.RootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.RootDir {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })

	// One Program spans every package the loader saw (the walked set
	// plus any module-local dependencies pulled in by imports), so
	// interprocedural summaries cross package boundaries.
	all := make([]*Package, 0, len(l.pkgs))
	for _, pkg := range l.pkgs {
		all = append(all, pkg)
	}
	prog := NewProgram(all...)
	for _, pkg := range all {
		pkg.prog = prog
	}
	return out, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads the package in dir, or (nil, nil) when the directory
// holds no buildable Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    (*loaderImporter)(l),
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		Dir:        dir,
		ImportPath: importPath,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: module-local
// paths recurse into loadDir, "unsafe" is the built-in package, and
// everything else goes to the shared stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.RootDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return stdImporter().Import(path)
}

// LoadDir type-checks a single directory as a standalone package whose
// imports are standard-library only. It is the fixture loader used by
// the analyzer tests.
func LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	stdImporter()
	ctxt := build.Default
	ctxt.CgoEnabled = false
	bp, err := ctxt.ImportDir(abs, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(sharedFset, filepath.Join(abs, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    importOnlyStd{},
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(bp.Name, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", abs, err)
	}
	return &Package{
		Dir:        abs,
		ImportPath: bp.Name,
		Fset:       sharedFset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

type importOnlyStd struct{}

func (importOnlyStd) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return stdImporter().Import(path)
}
