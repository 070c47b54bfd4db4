package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// guardedByRe matches the field annotation, written as a trailing or
// doc comment on the field:
//
//	parked []bool // guarded by mu
//	healthy bool  // guarded by Registry.mu
//
// The unqualified form names a sibling field of the same struct; the
// qualified form names a field of another struct in the same package
// (for satellite records owned by a container's lock).
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)

// GuardedBy enforces annotation-declared lock ownership: a struct field
// carrying a "// guarded by mu" comment may only be read while mu (or
// its read half) is held, and only be written while mu is held
// exclusively. The analysis is intra-package and path-directed (heldAt's
// lock-state model); functions named *Locked are exempt by the
// repo-wide "caller holds the lock" convention, and accesses to
// objects freshly constructed in the same function (not yet published)
// are exempt.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "report reads/writes of fields annotated `// guarded by mu` made without holding " +
		"the named mutex",
	Run: runGuardedBy,
}

// guardSpec records one annotated field's lock requirement.
type guardSpec struct {
	// lockObj is the mutex field's object. For unqualified annotations
	// it is the sibling field; for qualified ones, the named struct's
	// field.
	lockObj types.Object
	// lockName is the annotation text, for messages ("mu", "Registry.mu").
	lockName string
	// sameStruct is true for the unqualified form: the access base path
	// must then match the held lock's base path (r.parked needs r.mu,
	// not some other instance's mu).
	sameStruct bool
}

func runGuardedBy(pass *Pass) error {
	specs := collectGuardSpecs(pass)
	if len(specs) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name != nil && funcNameExempt(fd.Name.Name) {
				continue
			}
			checkGuardedFunc(pass, fd, specs)
		}
	}
	return nil
}

// collectGuardSpecs finds every annotated field in the package's struct
// declarations and resolves the mutex it names.
func collectGuardSpecs(pass *Pass) map[types.Object]guardSpec {
	specs := map[types.Object]guardSpec{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				lockName, ok := fieldGuardAnnotation(field)
				if !ok {
					continue
				}
				lockObj, sameStruct := resolveGuardLock(pass, st, lockName)
				if lockObj == nil {
					continue // unresolvable annotation: no enforcement, no crash
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						specs[obj] = guardSpec{lockObj: lockObj, lockName: lockName, sameStruct: sameStruct}
					}
				}
			}
			return true
		})
	}
	return specs
}

// fieldGuardAnnotation extracts the "guarded by X" lock name from a
// field's doc or trailing comment.
func fieldGuardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// resolveGuardLock maps an annotation's lock name to a mutex object:
// the unqualified form finds the sibling field in the same struct; the
// qualified Owner.field form looks up the named type in the package
// scope and takes its field.
func resolveGuardLock(pass *Pass, st *ast.StructType, lockName string) (types.Object, bool) {
	for i := 0; i < len(lockName); i++ {
		if lockName[i] != '.' {
			continue
		}
		ownerName, fieldName := lockName[:i], lockName[i+1:]
		owner := pass.Pkg.Scope().Lookup(ownerName)
		if owner == nil {
			return nil, false
		}
		strct, ok := owner.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, false
		}
		for j := 0; j < strct.NumFields(); j++ {
			if strct.Field(j).Name() == fieldName {
				return strct.Field(j), false
			}
		}
		return nil, false
	}
	// Unqualified: sibling field of the same struct declaration.
	for _, sib := range st.Fields.List {
		for _, name := range sib.Names {
			if name.Name == lockName {
				return pass.Info.Defs[name], true
			}
		}
	}
	return nil, false
}

func checkGuardedFunc(pass *Pass, fd *ast.FuncDecl, specs map[types.Object]guardSpec) {
	fresh := locallyConstructed(pass, fd)
	// Classify write positions first so the inspection below can tell a
	// store from a load.
	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					writes[sel] = true // escaping address: treat as a write
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := selectedField(pass.Info, sel)
		if obj == nil {
			return true
		}
		spec, ok := specs[obj]
		if !ok {
			return true
		}
		if fresh[baseObjOf(pass.Info, sel.X)] {
			return true // object constructed here, not yet published
		}
		// A closure's lock state is its own: bound the scan at the
		// closest enclosing function literal.
		path := pathEnclosing(fd.Body, sel.Pos(), sel.End())
		body, _ := enclosingFunc(path)
		if body == nil {
			body = fd.Body
		}
		held := heldAt(pass.Info, body, sel)
		write := writes[sel]
		if guardSatisfied(spec, sel, held, write) {
			return true
		}
		verb := "read"
		need := "the lock (or its read half)"
		if write {
			verb = "write to"
			need = "the exclusive lock"
		}
		pass.Reportf(sel.Pos(),
			"%s %s, a field guarded by %s, without holding %s",
			verb, canonOr(sel, "field"), spec.lockName, need)
		return true
	})
}

// guardSatisfied reports whether the held-lock set meets the spec for
// this access.
func guardSatisfied(spec guardSpec, sel *ast.SelectorExpr, held map[string]heldLock, write bool) bool {
	accessBase := baseOf(canonExpr(sel.X))
	for _, h := range held {
		if h.obj != spec.lockObj {
			continue
		}
		if write && h.rlock {
			continue // RLock does not license a store
		}
		if spec.sameStruct && accessBase != "" && baseOf(h.canon) != "" && baseOf(h.canon) != accessBase {
			continue // some other instance's mutex
		}
		return true
	}
	return false
}

// selectedField resolves the field object a selector denotes, or nil
// when the selector is not a field access.
func selectedField(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok {
		if s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return nil
	}
	// Package-qualified or unresolved selector: not a field access.
	return nil
}

// baseObjOf resolves the object of the root identifier of an access
// path (the "r" in r.shards[i].mu), or nil.
func baseObjOf(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// locallyConstructed collects local variables whose initializer freshly
// constructs an object (composite literal, &composite literal, new(T),
// or a plain `var x T` declaration): until published, their fields
// cannot be accessed by another goroutine, so guarded-field checks do
// not apply.
func locallyConstructed(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	isFreshExpr := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
				return ok
			}
		case *ast.CallExpr:
			return isBuiltin(pass.Info, e, "new")
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isFreshExpr(rhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							out[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 && n.Type != nil {
				for _, name := range n.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isFreshExpr(v) {
					if obj := pass.Info.Defs[n.Names[i]]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

func canonOr(e ast.Expr, fallback string) string {
	if c := canonExpr(e); c != "" {
		return c
	}
	return fallback
}
