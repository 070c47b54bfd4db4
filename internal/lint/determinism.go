package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// resultPackages are the packages whose code can influence engine.Results
// and must therefore be bit-reproducible: same spec + same seed → same
// bytes, on any host, in any process. The list is matched against the
// package import path's module-relative suffix so it holds for the repo
// checked out under any module prefix.
var resultPackages = []string{
	"internal/engine",
	"internal/core",
	"internal/cache",
	"internal/coherence",
	"internal/bus",
	"internal/violation",
	"internal/adaptive",
	"internal/spec",
	"internal/synth",
	"internal/memtrace",
	"internal/sampling",
}

// wallClockFuncs are the time package entry points that read the wall
// clock (directly or by arming a timer against it).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// globalRandExempt are math/rand top-level funcs that do NOT draw from
// the global generator: constructors for explicitly-seeded local ones.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors.
	"NewPCG": true, "NewChaCha8": true,
}

// Determinism enforces reproducibility in result-affecting packages:
// byte-identical Results across hosts, processes, and fleet topologies
// are the property every equivalence test in this repo asserts, and they
// cannot survive wall-clock reads, the (process-global, racy) math/rand
// generator, or map iteration order escaping into ordered output.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "report nondeterminism sources (wall clock, global math/rand, order-sensitive map " +
		"iteration) in result-affecting packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !isResultPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// isResultPackage matches the package path against the
// result-affecting list.
func isResultPackage(path string) bool {
	for _, suffix := range resultPackages {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
		// A bare path with no separators (fixture packages loaded outside
		// a module) matches on the final component ("engine").
		if !strings.Contains(path, "/") && path == suffix[strings.LastIndexByte(suffix, '/')+1:] {
			return true
		}
	}
	return false
}

func checkDetCall(pass *Pass, call *ast.CallExpr) {
	fn, ok := calleeObj(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. on an explicitly-seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in a result-affecting package; "+
					"derive timing from simulated cycles, or justify with "+
					"`//lint:allow determinism -- <why>` if the value provably never reaches Results",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExempt[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the process-global generator in a result-affecting package; "+
					"use an explicitly-seeded rand.New(rand.NewSource(seed)) carried in the run's state",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags `range m` over a map when the loop body leaks the
// iteration order into ordered output: appending to a slice that
// outlives the loop (unless that slice is sorted later in the same
// function), writing to an io/fmt sink, sending on a channel, or
// accumulating into a float (whose addition is not associative, so the
// low bits depend on iteration order). Order-insensitive folds — map
// writes, integer sums, counters — pass.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	body, _ := enclosingFuncOfNode(pass, rng)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration publishes entries in randomized map order")
		case *ast.CallExpr:
			if name, ok := orderedSinkCall(pass.Info, n); ok {
				pass.Reportf(n.Pos(),
					"%s inside map iteration emits entries in randomized map order; "+
						"collect and sort the keys first", name)
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, body, rng, n)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	// x = append(x, ...) where x is declared outside the loop.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "append") {
			obj := assignTargetObj(pass.Info, as.Lhs[0])
			if obj == nil || declaredWithin(pass.Fset, obj, rng) {
				return
			}
			if fnBody != nil && sortedAfter(pass, fnBody, rng, obj) {
				return
			}
			pass.Reportf(as.Pos(),
				"append to %s inside map iteration builds a slice in randomized map order; "+
					"sort it before it escapes (or iterate sorted keys)", canonExpr(as.Lhs[0]))
			return
		}
	}
	// x += <float> accumulation: float addition is not associative, so
	// even a commutative-looking sum depends on iteration order.
	if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN || as.Tok == token.MUL_ASSIGN {
		if len(as.Lhs) != 1 {
			return
		}
		t := pass.Info.TypeOf(as.Lhs[0])
		if t == nil {
			return
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			obj := assignTargetObj(pass.Info, as.Lhs[0])
			if obj != nil && declaredWithin(pass.Fset, obj, rng) {
				return
			}
			pass.Reportf(as.Pos(),
				"floating-point accumulation into %s inside map iteration is order-sensitive "+
					"(float addition is not associative); accumulate in an integer or sort the keys",
				canonExpr(as.Lhs[0]))
		}
	}
}

// orderedSinkCall recognizes calls that emit ordered output: fmt
// printers and Write/WriteString/WriteByte/WriteRune methods.
func orderedSinkCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if fn, ok := calleeObj(info, call).(*types.Func); ok && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
			return "fmt." + fn.Name(), true
		}
		if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
			return "fmt." + fn.Name(), true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			switch fn.Name() {
			case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
				return fn.Name(), true
			}
		}
	}
	return "", false
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(fset *token.FileSet, obj types.Object, node ast.Node) bool {
	return obj.Pos() != token.NoPos && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether, after the range statement, the function
// passes obj to a call whose name suggests sorting (sort.*, slices.Sort*,
// or any local helper containing "sort" in its name). This keeps the
// collect-then-sort idiom clean without a suppression.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		name := calleeName(pass.Info, call)
		if !strings.Contains(strings.ToLower(name), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if lockExprObj(pass.Info, arg) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeName returns the callee's qualified name ("sort.Strings",
// "slices.Sort", "sortCores") so the "contains sort" heuristic sees
// both the package and function halves of the name.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil {
		return ""
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// enclosingFuncOfNode finds the innermost function body containing n in
// any of the pass's files.
func enclosingFuncOfNode(pass *Pass, n ast.Node) (*ast.BlockStmt, *ast.FuncDecl) {
	for _, f := range pass.Files {
		if f.Pos() <= n.Pos() && n.End() <= f.End() {
			path := pathEnclosing(f, n.Pos(), n.End())
			return enclosingFunc(path)
		}
	}
	return nil, nil
}
