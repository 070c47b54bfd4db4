package lint

import (
	"go/ast"
	"go/types"
)

// CondLock enforces the engine's wakeup contract: every
// sync.Cond.Broadcast/Signal call must be made while holding the cond's
// own locker. A broadcast outside the critical section can land in the
// window between a waiter's predicate test and its cond.Wait — the
// classic lost wakeup, and exactly the bug the parallel host's old
// condvar shutdown path once had (testdata/brokenmod reconstructs it).
var CondLock = &Analyzer{
	Name: "condlock",
	Doc: "report sync.Cond Broadcast/Signal calls made without holding the cond's locker " +
		"(the lost-wakeup bug class)",
	Run: runCondLock,
}

// condLocker records where a cond's locker came from: the object of the
// mutex variable/field passed to sync.NewCond, plus its canonical path
// relative to the cond expression's base.
type condLocker struct {
	obj   types.Object
	canon string
}

func runCondLock(pass *Pass) error {
	// Pass 1: map cond objects (package-level vars, locals, struct
	// fields) to the locker expression passed to sync.NewCond. The
	// binding is found syntactically in assignments, value specs, and
	// composite literals anywhere in the package.
	lockers := map[types.Object]condLocker{}
	bind := func(lhsObj types.Object, call *ast.CallExpr) {
		if lhsObj == nil || len(call.Args) != 1 {
			return
		}
		arg := call.Args[0]
		lockers[lhsObj] = condLocker{
			obj:   lockExprObj(pass.Info, arg),
			canon: canonExpr(arg),
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isPkgFunc(pass.Info, call, "sync", "NewCond") || i >= len(n.Lhs) {
						continue
					}
					bind(assignTargetObj(pass.Info, n.Lhs[i]), call)
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					call, ok := ast.Unparen(v).(*ast.CallExpr)
					if !ok || !isPkgFunc(pass.Info, call, "sync", "NewCond") || i >= len(n.Names) {
						continue
					}
					bind(pass.Info.Defs[n.Names[i]], call)
				}
			case *ast.KeyValueExpr:
				call, ok := ast.Unparen(n.Value).(*ast.CallExpr)
				if !ok || !isPkgFunc(pass.Info, call, "sync", "NewCond") {
					return true
				}
				if key, ok := n.Key.(*ast.Ident); ok {
					bind(pass.Info.Uses[key], call)
				}
			}
			return true
		})
	}

	// Pass 2: check every Broadcast/Signal call site.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name != nil && funcNameExempt(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, method, condExpr := condWakeCall(pass.Info, call)
				if sel == nil {
					return true
				}
				// The closest enclosing function body bounds the lock scan
				// (a closure does not inherit its definer's lock state).
				path := pathEnclosing(fd.Body, call.Pos(), call.End())
				body, _ := enclosingFunc(path)
				if body == nil {
					body = fd.Body
				}
				held := heldAt(pass.Info, body, call)
				if condWakeIsLocked(pass.Info, condExpr, lockers, held) {
					return true
				}
				pass.Reportf(call.Pos(),
					"%s on %s is not dominated by a Lock of the cond's locker: "+
						"a waiter between its predicate test and cond.Wait misses this wakeup (lost-wakeup); "+
						"store state and %s while holding the cond's mutex",
					method, exprString(condExpr), method)
				return true
			})
		}
	}
	return nil
}

// condWakeCall recognizes X.Broadcast() / X.Signal() where X is a
// *sync.Cond (or sync.Cond) value, returning the selector, method name,
// and cond expression.
func condWakeCall(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, string, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", nil
	}
	if sel.Sel.Name != "Broadcast" && sel.Sel.Name != "Signal" {
		return nil, "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", nil
	}
	if named := namedOf(sig.Recv().Type()); named == nil || named.Obj().Name() != "Cond" {
		return nil, "", nil
	}
	return sel, sel.Sel.Name, sel.X
}

// condWakeIsLocked reports whether the held-lock set satisfies the
// cond's locker requirement:
//
//   - a held lock matching the locker bound by sync.NewCond, by object
//     identity when the cond and the lock share the same base path
//     (r.cond ↔ r.mu), or
//   - an explicit cond.L lock (X.L.Lock() for this X), or
//   - when the cond's construction is not visible in this package, any
//     held lock at all (conservative).
func condWakeIsLocked(info *types.Info, condExpr ast.Expr,
	lockers map[types.Object]condLocker, held map[string]heldLock) bool {

	condCanon := canonExpr(condExpr)
	if condCanon != "" {
		if _, ok := held[condCanon+".L"]; ok {
			return true
		}
	}
	condObj := lockExprObj(info, condExpr)
	locker, known := condLockerFor(condObj, lockers)
	if !known {
		return len(held) > 0
	}
	condBase := baseOf(condCanon)
	for _, h := range held {
		if locker.obj != nil && h.obj == locker.obj {
			// Same mutex object; require the same instance when both
			// sides have a resolvable base path.
			if condBase == "" || baseOf(h.canon) == "" || condBase == baseOf(h.canon) {
				return true
			}
		}
		if locker.canon != "" && h.canon == locker.canon {
			return true
		}
	}
	return false
}

func condLockerFor(condObj types.Object, lockers map[types.Object]condLocker) (condLocker, bool) {
	if condObj == nil {
		return condLocker{}, false
	}
	l, ok := lockers[condObj]
	return l, ok
}

// baseOf returns the leading component of a canonical path ("r.cond" →
// "r"), or "" when there is none.
func baseOf(canon string) string {
	for i := 0; i < len(canon); i++ {
		if canon[i] == '.' || canon[i] == '[' {
			return canon[:i]
		}
	}
	return canon
}

// namedOf unwraps pointers to reach a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exprString renders a short description of an expression for messages.
func exprString(e ast.Expr) string {
	if c := canonExpr(e); c != "" {
		return c
	}
	return "cond"
}

// assignTargetObj resolves the object an assignment LHS denotes: a
// variable (Uses or Defs for :=) or a struct field (selector).
func assignTargetObj(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if o := info.Defs[lhs]; o != nil {
			return o
		}
		return info.Uses[lhs]
	case *ast.SelectorExpr:
		return info.Uses[lhs.Sel]
	}
	return nil
}
