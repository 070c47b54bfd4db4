package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is the whole set of packages one lint run can see, plus the
// lazily-built call graph and per-analysis summary caches shared by the
// interprocedural analyzers. For slacksimlint the Program spans the
// entire module (cross-package summaries); in fixture tests it holds a
// single package, so interprocedural facts stop at the package boundary.
type Program struct {
	pkgs   []*Package
	byPath map[string]*Package

	cg     *CallGraph
	sums   map[string]map[*types.Func]any // per-analysis summary caches
	allows map[*Package][]*allowSite      // per-package allow directives
}

// NewProgram builds a Program over the given packages. Packages must
// share one *token.FileSet and one type-checking universe (the same
// Loader, or a single package).
func NewProgram(pkgs ...*Package) *Program {
	p := &Program{
		byPath: map[string]*Package{},
		sums:   map[string]map[*types.Func]any{},
		allows: map[*Package][]*allowSite{},
	}
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		if _, ok := p.byPath[pkg.ImportPath]; ok {
			continue
		}
		p.pkgs = append(p.pkgs, pkg)
		p.byPath[pkg.ImportPath] = pkg
	}
	sort.Slice(p.pkgs, func(i, j int) bool { return p.pkgs[i].ImportPath < p.pkgs[j].ImportPath })
	return p
}

// allowsFor parses (once) and returns the //lint:allow sites of pkg.
func (p *Program) allowsFor(pkg *Package) []*allowSite {
	if sites, ok := p.allows[pkg]; ok {
		return sites
	}
	sites := collectAllows(pkg.Fset, pkg.Files)
	p.allows[pkg] = sites
	return sites
}

// AllowedAt reports whether a finding by the named analyzer at pos in
// pkg is waived by a //lint:allow directive. Interprocedural analyzers
// use it to honor waivers at the callee: a waived allocation inside a
// helper does not poison the helper's summary.
func (p *Program) AllowedAt(pkg *Package, analyzer string, pos token.Pos) bool {
	return matchAllow(p.allowsFor(pkg), analyzer, pkg.Fset.Position(pos))
}

// AllowInfo is one //lint:allow directive, for inventory output.
type AllowInfo struct {
	Position  token.Position
	Analyzers []string
	Reason    string
	// Used reports whether any analysis already run on this Program
	// consumed the directive (suppressed a finding, or cleared a callee
	// summary via AllowedAt). Run the full suite over every package
	// before reading it: an untouched package's directives are all
	// trivially unused.
	Used bool
}

// AllowInventory returns every //lint:allow directive in the program's
// non-test files, sorted by position.
func (p *Program) AllowInventory() []AllowInfo {
	var out []AllowInfo
	for _, pkg := range p.pkgs {
		for _, s := range p.allowsFor(pkg) {
			posn := pkg.Fset.Position(s.pos)
			if strings.HasSuffix(posn.Filename, "_test.go") {
				continue
			}
			names := make([]string, 0, len(s.analyzers))
			for n := range s.analyzers {
				names = append(names, n)
			}
			sort.Strings(names)
			out = append(out, AllowInfo{
				Position:  posn,
				Analyzers: names,
				Reason:    s.reason,
				Used:      s.used,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// A FuncNode is one call-graph node: a function or method with a
// declaration in the program, or an interface method acting as a
// dispatch hub over its in-program implementations (Decl == nil).
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl // nil for interface-method dispatch hubs
	Pkg  *Package      // nil for dispatch hubs

	// Callees are the statically-resolvable call targets, in first-use
	// order: direct calls, method calls, method-value references (a
	// method used as a value may be called later, so it is an edge), and
	// — for dispatch hubs — every in-program concrete implementation.
	Callees []*types.Func
	// CallsUnknown records that the body calls through a function value
	// or other callee the graph cannot resolve to a *types.Func.
	CallsUnknown bool
}

// A CallGraph is the static over-approximated call graph of a Program,
// plus its strongly-connected components in bottom-up (callee-first)
// order.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode

	// sccs lists the condensation's components in reverse topological
	// order: every callee's component appears before (or with) its
	// caller's, so a bottom-up summary pass processes sccs in slice
	// order.
	sccs [][]*FuncNode
}

// Node returns the call-graph node for fn, or nil when fn has no
// declaration in the program (external, stdlib, or export-data-only).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg != nil {
		return p.cg
	}
	g := &CallGraph{nodes: map[*types.Func]*FuncNode{}}

	// Pass 1: a node per declared function, with edges collected from
	// its body (function literals are attributed to the enclosing
	// declaration: their bodies run, at the latest, while the enclosing
	// frame's effects are the caller's responsibility).
	var ifaceMethods []*types.Func
	seenIface := map[*types.Func]bool{}
	for _, pkg := range p.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg}
				collectEdges(pkg.Info, fd.Body, n, seenIface, &ifaceMethods)
				g.nodes[obj] = n
			}
		}
	}

	// Pass 2: expand interface methods into dispatch hubs over every
	// in-program implementation (conservative: any concrete type that
	// implements the interface may be the dynamic callee).
	for _, im := range ifaceMethods {
		if g.nodes[im] != nil {
			continue
		}
		hub := &FuncNode{Fn: im}
		iface := ifaceOf(im)
		for _, pkg := range p.pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					continue
				}
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				var recv types.Type = named
				if iface != nil && !types.Implements(recv, iface) {
					recv = types.NewPointer(named)
					if !types.Implements(recv, iface) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(recv, true, im.Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok && g.nodes[m] != nil {
					hub.Callees = append(hub.Callees, m)
				}
			}
		}
		// A dispatch hub with zero in-program implementations behaves as
		// an unknown callee: implementations may live outside the program.
		if len(hub.Callees) == 0 {
			hub.CallsUnknown = true
		}
		g.nodes[im] = hub
	}

	g.computeSCCs()
	p.cg = g
	return g
}

// ifaceOf returns the interface type declaring the method, or nil.
func ifaceOf(m *types.Func) *types.Interface {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if named, ok := t.(*types.Named); ok {
		t = named.Underlying()
	}
	iface, _ := t.(*types.Interface)
	return iface
}

// resolveCallee classifies a call expression: a statically-known
// *types.Func target (direct call, method call, generic instantiation),
// a harmless non-function "call" (builtin, type conversion, func
// literal invoked in place), or an unknown callee (a call through a
// function value the graph cannot resolve).
func resolveCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, unknown bool) {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation: f[T](x), m[T1, T2](x).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[fun]; !ok || !tv.IsType() {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.FuncLit:
		// Invoked in place: its body is already attributed to the
		// enclosing declaration by the edge walk.
		return nil, false
	default:
		// *ast.ArrayType and friends are type conversions.
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return nil, false
		}
		return nil, true
	}
	switch obj := obj.(type) {
	case *types.Func:
		// A method of a generic type is used through its instantiation;
		// the graph and the summaries hold the declared method.
		return obj.Origin(), false
	case *types.Builtin, *types.TypeName, nil:
		return nil, false
	default:
		// *types.Var (a function value) or anything else: unresolvable.
		return nil, true
	}
}

// collectEdges walks one function body recording call and method-value
// edges on n. Interface-method callees are recorded both as edges and in
// ifaceMethods for hub expansion.
func collectEdges(info *types.Info, body ast.Node, n *FuncNode,
	seenIface map[*types.Func]bool, ifaceMethods *[]*types.Func) {

	// callFuns marks expressions that appear as the Fun of a call, so a
	// *types.Func used outside call position is recognized as a method
	// value (a possible deferred call) rather than double-counted.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	seen := map[*types.Func]bool{}
	addEdge := func(fn *types.Func) {
		if fn == nil {
			return
		}
		fn = fn.Origin()
		if !seen[fn] {
			seen[fn] = true
			n.Callees = append(n.Callees, fn)
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				if !seenIface[fn] {
					seenIface[fn] = true
					*ifaceMethods = append(*ifaceMethods, fn)
				}
			}
		}
	}

	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			fn, unknown := resolveCallee(info, node)
			if fn != nil {
				addEdge(fn)
			} else if unknown {
				n.CallsUnknown = true
			}
		case *ast.Ident:
			if callFuns[ast.Expr(node)] {
				return true
			}
			if fn, ok := info.Uses[node].(*types.Func); ok {
				// A function or method referenced as a value: conservatively
				// an edge (it may be invoked by whoever receives it).
				addEdge(fn)
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(node)] {
				return true
			}
			if fn, ok := info.Uses[node.Sel].(*types.Func); ok {
				addEdge(fn)
			}
		}
		return true
	})
}

// computeSCCs runs Tarjan's algorithm (iteratively, deterministic node
// order) and stores the components in reverse topological order:
// callees before callers.
func (g *CallGraph) computeSCCs() {
	// Deterministic iteration order: sort nodes by position (hubs, which
	// have no Decl, sort by qualified name at the end).
	nodes := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		switch {
		case a.Decl != nil && b.Decl != nil:
			return a.Decl.Pos() < b.Decl.Pos()
		case a.Decl != nil:
			return true
		case b.Decl != nil:
			return false
		default:
			return a.Fn.FullName() < b.Fn.FullName()
		}
	})

	index := map[*FuncNode]int{}
	low := map[*FuncNode]int{}
	onStack := map[*FuncNode]bool{}
	var stack []*FuncNode
	next := 0

	type frame struct {
		n  *FuncNode
		ci int // next callee index to visit
	}
	var visit func(root *FuncNode)
	visit = func(root *FuncNode) {
		work := []frame{{n: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			n := f.n
			if f.ci == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.ci < len(n.Callees) {
				c := g.nodes[n.Callees[f.ci]]
				f.ci++
				if c == nil {
					continue
				}
				if _, seen := index[c]; !seen {
					work = append(work, frame{n: c})
					advanced = true
					break
				}
				if onStack[c] && index[c] < low[n] {
					low[n] = index[c]
				}
			}
			if advanced {
				continue
			}
			// n is finished: pop an SCC if n is a root.
			if low[n] == index[n] {
				var scc []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				g.sccs = append(g.sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
}
