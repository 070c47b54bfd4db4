// Package lint is slacksimlint's analysis framework and analyzer suite:
// static enforcement of the invariants the simulator's correctness
// claims stand on. The paper's premise is detecting violations of
// simulation invariants at runtime (monitoring timestamps on shared
// resources); this package is the static complement for the *host*
// program — the invariants that keep the parallel host deterministic,
// lock-correct, and allocation-free on its hot paths:
//
//   - condlock: every sync.Cond Broadcast/Signal must happen while the
//     cond's own locker is held (the PR 1 lost-wakeup bug class).
//   - determinism: result-affecting packages must not read the wall
//     clock, use the global math/rand generator, or let map iteration
//     order escape into ordered output.
//   - hotpathalloc: functions annotated //slacksim:hotpath must not
//     allocate (protecting the checkpoint and rollback hot paths).
//   - guardedby: struct fields annotated "guarded by mu" may only be
//     accessed while that mutex is held.
//   - poolescape: memory from //slacksim:pooled allocators must not
//     outlive its pool's Reset/Release, and SnapshotInto/CopyInto must
//     copy rather than alias (the PR 8 recycled-slice bug class).
//   - atomicfield: a field ever accessed via sync/atomic must be
//     accessed atomically everywhere outside its constructor.
//   - keyappend: //slacksim:appendonly key builders must match their
//     pinned segment schema, additions at the tail only.
//
// hotpathalloc, poolescape, atomicfield, and keyappend are
// interprocedural: they share a call graph and per-function summary
// framework (Program, CallGraph, Summaries) that propagates facts
// bottom-up over SCCs — see DESIGN.md §17.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the suite can be ported to the real
// framework mechanically, but is built entirely on the standard library
// (go/ast, go/types, go/importer) so the repository stays
// dependency-free.
//
// # Suppressions
//
// A finding can be waived with a mandatory-reason directive on the
// flagged line or the line above it:
//
//	//lint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// An allow directive without a reason is itself a finding: the written
// reason is the point of the escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
// Prog is the surrounding Program: the whole module in standalone mode,
// the single package under analysis in vet mode and fixture tests.
// Interprocedural analyzers reach the call graph and summary caches
// through it; it is never nil.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	report func(Diagnostic)
}

// Package returns the loaded package this pass analyzes.
func (p *Pass) Package() *Package {
	for _, pkg := range p.Prog.pkgs {
		if pkg.Types == p.Pkg {
			return pkg
		}
	}
	return nil
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one raw finding before suppression filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved, position-stamped finding that survived
// suppression filtering.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{CondLock, Determinism, HotPathAlloc, GuardedBy,
		PoolEscape, AtomicField, KeyAppend}
}

// ByName returns the named analyzers (nil names → full suite).
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return Analyzers(), nil
	}
	all := Analyzers()
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}

// allowRe matches the suppression directive. The reason separator is
// mandatory so a bare waiver cannot be written by accident.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-zA-Z0-9_,]+)\s*(?:--\s*(.*))?$`)

// allowSite is one parsed //lint:allow directive.
type allowSite struct {
	analyzers map[string]bool
	reason    string
	file      string
	line      int
	pos       token.Pos
	used      bool
}

func (s *allowSite) hasReason() bool { return s.reason != "" }

// matchAllow reports whether a directive waives a finding by the named
// analyzer at posn, and credits the directive that did. A directive
// covers its own line and the following line of its own file, so it can
// trail the flagged statement or stand alone above it. Same-line
// directives win, so that in a stack of per-line trailing allows each one
// is credited (and audited) for its own line.
func matchAllow(sites []*allowSite, analyzer string, posn token.Position) bool {
	for _, back := range []int{0, 1} {
		for _, s := range sites {
			if s.analyzers[analyzer] && s.file == posn.Filename && s.line+back == posn.Line {
				s.used = true
				return true
			}
		}
	}
	return false
}

// collectAllows parses every //lint:allow directive in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) []*allowSite {
	var sites []*allowSite
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				s := &allowSite{
					analyzers: map[string]bool{},
					reason:    strings.TrimSpace(m[2]),
					file:      posn.Filename,
					line:      posn.Line,
					pos:       c.Pos(),
				}
				for _, n := range strings.Split(m[1], ",") {
					s.analyzers[strings.TrimSpace(n)] = true
				}
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// RunPackage applies the analyzers to one type-checked package and
// returns the findings that survive //lint:allow filtering, sorted by
// position. Findings in _test.go files are dropped: the invariants
// target production code, and the vet driver feeds test variants of
// every package through the same checker.
//
// The package is wrapped in a single-package Program, so interprocedural
// analyzers see facts within the package but not across packages — the
// vet-mode soundness boundary. Callers holding a whole-module Program
// (the standalone loader) use Program-aware paths instead.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, analyzers []*Analyzer) ([]Finding, error) {

	lp := &Package{
		ImportPath: pkg.Path(),
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
	}
	return runPackageInProgram(NewProgram(lp), lp, analyzers)
}

// runPackageInProgram is RunPackage with an explicit surrounding
// Program (whole-module in standalone mode).
func runPackageInProgram(prog *Program, lp *Package, analyzers []*Analyzer) ([]Finding, error) {
	fset, files, pkg, info := lp.Fset, lp.Files, lp.Types, lp.Info
	// Share the Program's parsed sites so a directive consumed here (or
	// by a summary via AllowedAt) is marked used for AllowInventory.
	allows := prog.allowsFor(lp)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Prog:     prog,
		}
		pass.report = func(d Diagnostic) {
			posn := fset.Position(d.Pos)
			if strings.HasSuffix(posn.Filename, "_test.go") {
				return
			}
			if matchAllow(allows, a.Name, posn) {
				return
			}
			out = append(out, Finding{Position: posn, Analyzer: a.Name, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}

	// A reason-less allow is a finding of its own, whether or not it
	// matched anything: the written justification is mandatory.
	for _, s := range allows {
		if !s.hasReason() {
			posn := fset.Position(s.pos)
			if !strings.HasSuffix(posn.Filename, "_test.go") {
				out = append(out, Finding{
					Position: posn,
					Analyzer: "lintdirective",
					Message:  "//lint:allow directive is missing its mandatory reason (use `//lint:allow <name> -- <why>`)",
				})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// pathEnclosing returns the chain of AST nodes from root down to the
// node whose position range most tightly encloses [pos, end), outermost
// first. It is the stdlib-only stand-in for astutil.PathEnclosingInterval.
func pathEnclosing(root ast.Node, pos, end token.Pos) []ast.Node {
	var path []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && end <= n.End() {
			path = append(path, n)
			ast.Inspect(n, func(c ast.Node) bool {
				if c == nil || c == n {
					return c == n
				}
				if c.Pos() <= pos && end <= c.End() {
					visit(c)
					return false
				}
				return true
			})
			return true
		}
		return false
	}
	visit(root)
	return path
}

// enclosingFuncs returns the innermost function body (FuncDecl body or
// FuncLit body) containing the path's tail, plus the FuncDecl if any.
func enclosingFunc(path []ast.Node) (body *ast.BlockStmt, decl *ast.FuncDecl) {
	for i := len(path) - 1; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.FuncLit:
			return n.Body, nil
		case *ast.FuncDecl:
			return n.Body, n
		}
	}
	return nil, nil
}

// canonExpr renders an expression as a canonical access path ("r.mu",
// "q.cond.L", "m.shards[i]") for intra-function lock matching. The empty
// string means the expression has no stable path (calls, literals, ...).
func canonExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := canonExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return canonExpr(e.X)
	case *ast.StarExpr:
		return canonExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return canonExpr(e.X)
		}
		return ""
	case *ast.IndexExpr:
		base := canonExpr(e.X)
		idx := canonExpr(e.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	}
	return ""
}

// funcNameExempt reports whether a function participates in the
// "caller holds the lock" convention: names ending in "Locked" are
// documented as requiring their receiver's mutex to be held on entry,
// so lock-discipline analyzers skip their bodies.
func funcNameExempt(name string) bool {
	return strings.HasSuffix(name, "Locked")
}

// isPkgFunc reports whether the call's callee is the package-level
// function pkgPath.name, resolved through the type checker (so local
// shadows and method values are not confused with it).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// calleeObj resolves the object a call expression invokes, or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}
