package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective is the annotation that opts a function into the
// no-allocation contract. It goes in the function's doc comment:
//
//	//slacksim:hotpath
//	func (q *Queue[T]) DrainInto(now int64, buf []T) []T { ... }
const hotpathDirective = "//slacksim:hotpath"

// HotPathAlloc protects the steady-state allocation profile of
// checkpoint restore, event-queue drain, and the ROB ring: after
// pool warm-up these paths run allocation-free, and that property (a
// ~24x reduction, measured in PR 3; ~130x by PR 8) dies by a thousand
// innocent-looking appends. Any function carrying //slacksim:hotpath in
// its doc comment may not contain:
//
//   - make() of a slice, map, or channel (fresh backing storage);
//   - new() or &CompositeLit (heap candidates);
//   - function literals (closure environments allocate);
//   - append whose destination is not visibly reusing storage — the
//     accepted idioms are appending into a slice derived from a slicing
//     expression (x = append(x[:0], ...)), appending to a caller-provided
//     buffer parameter, or appending to a target previously reset via a
//     slicing expression in the same function;
//   - a call that boxes variadic arguments (f(a, b) against f(x ...T)
//     allocates the backing slice — the trace.Ring.Addf class);
//   - a call to a callee that itself allocates, propagated bottom-up
//     through the call graph by per-function summaries. Callee-side
//     allocations waived with //lint:allow hotpathalloc do not poison
//     the callee's summary — the written reason covers every caller.
//
// Two classes of site are cold by convention and exempt everywhere:
// arguments of panic() (the program is dying), and statements guarded by
// an Enabled() conditional (the documented cold-diagnostic idiom:
// `if tr.Enabled() { tr.Addf(...) }`).
//
// Soundness boundary: callees without source in the analyzed program
// (stdlib, export data) are assumed allocation-free except a small
// denylist of known allocators (the fmt package, errors.New/Errorf,
// strings.Join/Repeat, sort.Slice/SliceStable); in fixture tests the
// program is a single package, so cross-package propagation only
// happens in whole-module runs. Calls through unresolvable function
// values are not propagated.
//
// Genuinely-unavoidable allocations (pool warm-up, rare resize paths)
// are waived with `//lint:allow hotpathalloc -- <why>`.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "report allocation sources (make, new, composite-literal address, closures, " +
		"growing append, variadic boxing, allocating callees) inside //slacksim:hotpath functions",
	Run: runHotPathAlloc,
}

// allocSummary is the per-function interprocedural fact: whether calling
// the function can allocate on the (non-cold, non-waived) path, and a
// human-readable description of the first cause found.
type allocSummary struct {
	Allocates bool
	What      string // e.g. `make(slice) at event.go:42` or `calls fmt.Sprintf`
}

func runHotPathAlloc(pass *Pass) error {
	sums := hotpathSummaries(pass.Prog)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			scanAllocs(pass.Info, fd, allocScanOpts{
				fset: pass.Fset,
				sums: sums,
			}, func(pos token.Pos, msg string) {
				pass.Reportf(pos, "%s", msg)
			})
		}
	}
	return nil
}

// hotpathSummaries computes the program's allocation summaries: a
// function allocates if its body contains a non-waived, non-cold
// allocation site, or (transitively) calls one that does.
func hotpathSummaries(prog *Program) map[*types.Func]any {
	return prog.Summaries("hotpathalloc", func(n *FuncNode, callee func(*types.Func) (any, bool)) any {
		if n.Decl == nil {
			// Interface dispatch hub: join over the in-program
			// implementations (any of them allocating taints the call).
			for _, c := range n.Callees {
				if s, known := callee(c); known {
					if as, ok := s.(allocSummary); ok && as.Allocates {
						return allocSummary{Allocates: true,
							What: fmt.Sprintf("dispatches to %s, which %s", c.Name(), as.What)}
					}
				}
			}
			return allocSummary{}
		}
		found := allocSummary{}
		scanAllocs(n.Pkg.Info, n.Decl, allocScanOpts{
			fset:   n.Pkg.Fset,
			sums:   nil, // resolved through calleeSum below instead
			callee: callee,
			waived: func(pos token.Pos) bool {
				return prog.AllowedAt(n.Pkg, "hotpathalloc", pos)
			},
		}, func(pos token.Pos, msg string) {
			if !found.Allocates {
				found = allocSummary{Allocates: true,
					What: fmt.Sprintf("%s (%s)", firstClause(msg), shortPos(n.Pkg.Fset, pos))}
			}
		})
		return found
	})
}

// firstClause trims a diagnostic down to its leading clause for use
// inside a propagated summary description. Cutting at ':' as well as
// ';' keeps summaries from recursively embedding callee descriptions —
// an unbounded What string would defeat the fixpoint's change detection
// (summaries must stabilize, not grow a longer chain each round).
func firstClause(msg string) string {
	cut := len(msg)
	for _, sep := range []string{"; ", ": "} {
		if i := strings.Index(msg, sep); i >= 0 && i < cut {
			cut = i
		}
	}
	return msg[:cut]
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// isHotPath reports whether the function's doc comment carries the
// //slacksim:hotpath directive.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// allocDenylist names external (out-of-program) callees known to
// allocate. Everything else external is assumed clean — the documented
// soundness boundary.
func externalAllocates(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "fmt":
		return true
	case "errors":
		return fn.Name() == "New" || fn.Name() == "Errorf"
	case "strings":
		return fn.Name() == "Join" || fn.Name() == "Repeat"
	case "sort":
		return fn.Name() == "Slice" || fn.Name() == "SliceStable"
	}
	return false
}

// allocScanOpts configures scanAllocs for its two callers: the reporting
// pass (sums set: callee facts resolved from the finished summary map)
// and the summary transfer function (callee set: facts resolved through
// the in-progress fixpoint; waived filters out callee-side allows).
type allocScanOpts struct {
	fset   *token.FileSet
	sums   map[*types.Func]any
	callee func(*types.Func) (any, bool)
	waived func(token.Pos) bool
}

func (o allocScanOpts) calleeSum(fn *types.Func) (allocSummary, bool) {
	if o.callee != nil {
		s, known := o.callee(fn)
		if !known {
			return allocSummary{}, false
		}
		as, _ := s.(allocSummary)
		return as, true
	}
	s, present := o.sums[fn]
	if !present {
		return allocSummary{}, false
	}
	as, _ := s.(allocSummary)
	return as, true
}

// scanAllocs walks one function body reporting every allocation site:
// the intraprocedural classes (make/new/&lit/closure/growing append),
// variadic boxing, and calls to allocating callees. Sites that are cold
// by convention (panic arguments, Enabled()-guarded statements) are
// skipped, as are sites for which opts.waived returns true.
func scanAllocs(info *types.Info, fd *ast.FuncDecl, opts allocScanOpts,
	report func(pos token.Pos, msg string)) {

	params := paramObjs(info, fd)
	// prepared tracks canonical targets that were visibly reset to reused
	// storage earlier in the function (x = x[:0], x := buf[:0], ...).
	prepared := map[string]bool{}
	emit := func(pos token.Pos, msg string) {
		if opts.waived != nil && opts.waived(pos) {
			return
		}
		report(pos, msg)
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if isEnabledGuard(info, n.Cond) {
				// The then-branch is a cold diagnostic path by the
				// documented convention; init/cond/else are still scanned.
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				ast.Inspect(n.Cond, walk)
				if n.Else != nil {
					ast.Inspect(n.Else, walk)
				}
				return false
			}
		case *ast.FuncLit:
			emit(n.Pos(), "function literal in a //slacksim:hotpath function allocates its closure environment; "+
				"hoist it to a method or a struct-field func set up once")
			return false
		case *ast.CallExpr:
			if isBuiltin(info, n, "panic") {
				// Panic arguments are cold: the program is dying.
				return false
			}
			checkAllocCall(info, n, params, prepared, opts, emit)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&composite-literal in a //slacksim:hotpath function heap-allocates; "+
						"reuse a pooled object instead")
				}
			}
		case *ast.AssignStmt:
			noteHotPathAssign(info, n, prepared)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// isEnabledGuard reports whether an if-condition is a conjunction with a
// direct method call named Enabled as one of its terms — the documented
// cold-diagnostic guard (`if tr.Enabled() { tr.Addf(...) }`). A negated
// Enabled() is not a guard.
func isEnabledGuard(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.LAND {
		return isEnabledGuard(info, be.X) || isEnabledGuard(info, be.Y)
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Enabled"
}

// noteHotPathAssign records targets reset to reused storage: any
// assignment (= or :=) whose RHS is a slicing expression marks the LHS
// canonical path as prepared for later appends.
func noteHotPathAssign(info *types.Info, as *ast.AssignStmt, prepared map[string]bool) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		if isStorageReuse(info, ast.Unparen(rhs), nil, prepared) {
			if c := canonExpr(as.Lhs[i]); c != "" {
				prepared[c] = true
			}
		}
	}
}

func checkAllocCall(info *types.Info, call *ast.CallExpr, params map[types.Object]bool,
	prepared map[string]bool, opts allocScanOpts, emit func(token.Pos, string)) {

	switch {
	case isBuiltin(info, call, "make"):
		kind := "slice"
		if len(call.Args) > 0 {
			if t := info.TypeOf(call.Args[0]); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					kind = "map"
				case *types.Chan:
					kind = "channel"
				}
			}
		}
		emit(call.Pos(),
			fmt.Sprintf("make(%s) in a //slacksim:hotpath function allocates fresh backing storage; "+
				"preallocate in the constructor and reuse via [:0]/clear()", kind))
		return
	case isBuiltin(info, call, "new"):
		emit(call.Pos(),
			"new() in a //slacksim:hotpath function heap-allocates; recycle through the free list")
		return
	case isBuiltin(info, call, "append"):
		if len(call.Args) == 0 {
			return
		}
		dst := ast.Unparen(call.Args[0])
		if isStorageReuse(info, dst, params, prepared) {
			return
		}
		emit(call.Pos(),
			fmt.Sprintf("append to %s in a //slacksim:hotpath function can grow (allocate); "+
				"append into a reused backing array (x = append(x[:0], ...)) or a caller-provided buffer",
				describeTarget(dst)))
		return
	}

	fn, _ := resolveCallee(info, call)
	if fn == nil {
		return
	}

	// Variadic boxing: calling a variadic signature with one or more
	// arguments at the variadic position allocates the backing slice
	// (a spread call f(xs...) passes the caller's slice through). One
	// finding per call: boxing subsumes the callee-body report.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() && !call.Ellipsis.IsValid() {
		if len(call.Args) >= sig.Params().Len() {
			emit(call.Pos(),
				fmt.Sprintf("call to %s boxes its variadic arguments into a fresh slice in a "+
					"//slacksim:hotpath function; pass a reused slice with ... or hoist behind a guard",
					fn.Name()))
			return
		}
	}

	// Interprocedural propagation: a callee whose summary allocates
	// taints this call site.
	if sum, known := opts.calleeSum(fn); known {
		if sum.Allocates {
			emit(call.Pos(),
				fmt.Sprintf("call to %s in a //slacksim:hotpath function allocates: %s", fn.Name(), sum.What))
		}
	} else if externalAllocates(fn) {
		emit(call.Pos(),
			fmt.Sprintf("call to %s.%s in a //slacksim:hotpath function allocates", fn.Pkg().Name(), fn.Name()))
	}
}

// isStorageReuse reports whether an append destination (or assignment
// source) visibly reuses existing storage:
//
//   - a slicing expression (x[:0], buf[:n]) — the canonical reuse idiom;
//   - a caller-provided parameter (the caller owns amortization);
//   - a target previously prepared by a slicing assignment;
//   - a nested append chain whose innermost destination qualifies.
func isStorageReuse(info *types.Info, e ast.Expr, params map[types.Object]bool, prepared map[string]bool) bool {
	switch e := e.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		if params != nil {
			if obj := info.Uses[e]; obj != nil && params[obj] {
				return true
			}
		}
		return prepared[e.Name]
	case *ast.SelectorExpr:
		return prepared[canonExpr(e)]
	case *ast.IndexExpr:
		return prepared[canonExpr(e)]
	case *ast.CallExpr:
		if isBuiltin(info, e, "append") && len(e.Args) > 0 {
			return isStorageReuse(info, ast.Unparen(e.Args[0]), params, prepared)
		}
	}
	return false
}

// paramObjs collects the objects of the function's parameters (including
// named results, which are also caller-visible buffers only when
// returned — results are excluded; only true parameters qualify).
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func describeTarget(e ast.Expr) string {
	if c := canonExpr(e); c != "" {
		return c
	}
	return "its destination"
}
