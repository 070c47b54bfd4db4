package lint

import (
	"go/ast"
	"go/types"
)

// heldLock describes one mutex believed held at a program point.
type heldLock struct {
	// canon is the canonical path of the locked expression ("r.mu").
	canon string
	// obj is the types object of the final path element (the mutex
	// field or variable), when resolvable.
	obj types.Object
	// rlock is true for RLock (shared) acquisitions.
	rlock bool
}

// lockMethod classifies a call as a lock-state transition on its
// receiver. It recognizes sync.Mutex, sync.RWMutex, and sync.Locker
// method sets by name; the receiver expression is returned for
// canonicalization.
func lockMethod(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return sel.X, sel.Sel.Name, true
	}
	return nil, "", false
}

// lockExprObj resolves the object of the final element of a lock
// expression (the mutex field or variable), or nil.
func lockExprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// heldAt computes the set of locks held at target, which must lie inside
// body. The analysis is syntactic and path-directed: for every block on
// the chain from body down to target, the statements preceding target's
// ancestor in that block are scanned (without descending into nested
// blocks or function literals) for X.Lock()/X.RLock() and
// X.Unlock()/X.RUnlock() calls. defer X.Unlock() does not release (it
// runs at function exit); locks taken inside sibling branches are
// conservatively ignored — a lock is only "held" when it is acquired on
// the straight-line path to the target. Function literals bound the
// scan: a closure does not inherit its enclosing function's lock state,
// because the closure may run on any goroutine at any time.
func heldAt(info *types.Info, body *ast.BlockStmt, target ast.Node) map[string]heldLock {
	held := map[string]heldLock{}
	path := pathEnclosing(body, target.Pos(), target.End())
	if len(path) == 0 {
		return held
	}

	// Walk the path outermost→innermost. At each statement-list node,
	// apply the lock calls among the statements preceding the path's
	// next step. Only expression statements count: defer X.Unlock()
	// keeps the lock held until return.
	for i := 0; i < len(path); i++ {
		var list []ast.Stmt
		switch n := path[i].(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		case *ast.FuncLit:
			// Entering a closure: its body does not inherit lock state.
			held = map[string]heldLock{}
			continue
		default:
			continue
		}
		// Apply every statement of this list that precedes the one the
		// target lies in; the statement containing the target terminates
		// the scan (deeper lists are handled by later path elements).
		for _, st := range list {
			if containsPos(st, target) {
				break
			}
			if es, ok := st.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					applyLockCall(info, call, held)
				}
			}
		}
	}
	return held
}

// containsPos reports whether n's source range contains t's start.
func containsPos(n ast.Node, t ast.Node) bool {
	return n.Pos() <= t.Pos() && t.Pos() < n.End()
}

// applyLockCall folds one Lock/Unlock-shaped call into the held set.
func applyLockCall(info *types.Info, call *ast.CallExpr, held map[string]heldLock) {
	recv, method, ok := lockMethod(call)
	if !ok {
		return
	}
	canon := canonExpr(recv)
	if canon == "" {
		return
	}
	switch method {
	case "Lock":
		held[canon] = heldLock{canon: canon, obj: lockExprObj(info, recv), rlock: false}
	case "RLock":
		held[canon] = heldLock{canon: canon, obj: lockExprObj(info, recv), rlock: true}
	case "Unlock", "RUnlock":
		delete(held, canon)
	}
}

// baseOf returns the leading component of a canonical path ("r.mu" →
// "r"), or "" when there is none.
func baseOf(canon string) string {
	for i := 0; i < len(canon); i++ {
		if canon[i] == '.' || canon[i] == '[' {
			return canon[:i]
		}
	}
	return canon
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
