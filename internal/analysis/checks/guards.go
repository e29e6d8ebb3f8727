// Package checks holds flowvet's project-specific analyzers: the
// mechanical enforcement of the invariants DESIGN.md §15 documents —
// hot-path clock/allocation discipline (hotpathclock), nil-receiver
// safety of obs instruments (nilrecv), metric-name hygiene
// (metricname), fail-stop poison checks on engine mutators (failstop),
// and no blocking I/O under mutexes (lockhold).
package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flowmotif/internal/analysis/flowvet"
)

// Annotation markers. The grammar is documented in DESIGN.md §15.
const (
	// hotpathMarker tags a function as a hot-path root:
	// `//flowmotif:hotpath` (optionally `//flowmotif:hotpath noalloc`
	// for leaf functions that must not contain allocating syntax at
	// all). Everything statically reachable from a root inherits the
	// clock/formatter discipline.
	hotpathMarker = "flowmotif:hotpath"
	// obsgateMarker tags a field, variable, or type whose truthiness /
	// non-nilness means "an observability consumer is armed":
	// `//flowmotif:obsgate`. Conditions built from such gates (and from
	// the DisableObs config flag and nil-checks of internal/obs
	// instrument pointers) dominate clock reads and formatter calls on
	// the hot path.
	obsgateMarker = "flowmotif:obsgate"
)

// isPkg reports whether path is the module package with the given final
// elements, e.g. isPkg(path, "internal/obs") — fixtures use short paths
// like "fixture/internal/obs", so matching is by suffix.
func isPkg(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func isObsPkgPath(path string) bool    { return isPkg(path, "internal/obs") }
func isStreamPkgPath(path string) bool { return isPkg(path, "internal/stream") }

// gateSet is the program-wide set of recognized observability gates:
// objects (fields, vars) and named types whose declarations carry the
// //flowmotif:obsgate marker.
type gateSet struct {
	objs  map[types.Object]bool
	types map[*types.TypeName]bool
}

const gateFactKey = "flowvet.gates"

// gatesFor collects (once per program) every obsgate-annotated object
// and type across all module packages.
func gatesFor(prog *flowvet.Program) *gateSet {
	if g, ok := prog.Facts[gateFactKey].(*gateSet); ok {
		return g
	}
	g := &gateSet{objs: map[types.Object]bool{}, types: map[*types.TypeName]bool{}}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					if hasGateComment(n.Doc) || hasGateComment(n.Comment) {
						for _, name := range n.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								g.objs[obj] = true
							}
						}
					}
				case *ast.TypeSpec:
					if hasGateComment(n.Doc) || hasGateComment(n.Comment) {
						if tn, ok := pkg.Info.Defs[n.Name].(*types.TypeName); ok {
							g.types[tn] = true
						}
					}
				case *ast.GenDecl:
					if n.Tok == token.TYPE && hasGateComment(n.Doc) {
						for _, spec := range n.Specs {
							if ts, ok := spec.(*ast.TypeSpec); ok {
								if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
									g.types[tn] = true
								}
							}
						}
					}
				case *ast.ValueSpec:
					if hasGateComment(n.Doc) || hasGateComment(n.Comment) {
						for _, name := range n.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								g.objs[obj] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	prog.Facts[gateFactKey] = g
	return g
}

func hasGateComment(cg *ast.CommentGroup) bool {
	_, ok := flowvet.HasMarker(cg, obsgateMarker)
	return ok
}

// disableFlagName is the one Config switch (stream and server) whose
// mention in a condition makes it a gate: with the flag set the guarded
// code must not run, which is exactly the invariant hotpathclock enforces.
const disableFlagName = "DisableObs"

// gateExpr reports whether e denotes an observability gate value: a
// DisableObs flag, an obsgate-annotated object, or a value whose type is
// (a pointer to) an internal/obs type or an obsgate-annotated type.
func (g *gateSet) gateExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	var name string
	var obj types.Object
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
		obj = info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
	case *ast.SelectorExpr:
		name = e.Sel.Name
		obj = info.Uses[e.Sel]
	case *ast.CallExpr:
		// A call's result is a gate when the callee is (its own kind
		// of) gate — covers nil-safe accessor methods on annotated
		// types, e.g. e.mx.lagHist().
		return g.gateExpr(info, e.Fun)
	default:
		return g.gateType(info.TypeOf(e))
	}
	if name == disableFlagName {
		return true
	}
	if obj != nil && g.objs[obj] {
		return true
	}
	if obj != nil && g.gateType(obj.Type()) {
		return true
	}
	return g.gateType(info.TypeOf(e))
}

// gateType reports whether t is (a pointer to, or a func returning) a
// named type declared in an internal/obs package or annotated obsgate.
func (g *gateSet) gateType(t types.Type) bool {
	if t == nil {
		return false
	}
	if sig, ok := t.Underlying().(*types.Signature); ok && sig.Results().Len() == 1 {
		return g.gateType(sig.Results().At(0).Type())
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if g.types[tn] {
		return true
	}
	return tn.Pkg() != nil && isObsPkgPath(tn.Pkg().Path())
}

// pureGate reports whether cond is built entirely from gate atoms: any
// boolean combination (&&, ||, !) of
//
//   - nil comparisons of gate expressions (sp != nil, e.mx == nil),
//   - bare boolean gate expressions (m.on, !t.on),
//   - comparisons of a gate expression against a literal
//     (e.slowRound <= 0),
//   - mentions of the DisableObs config flag.
//
// A pure-gate condition — or its negation — tells the analyzer the
// controlled code runs only when some observability consumer asked for
// it, which is the hot path's "zero clock reads when disabled" budget.
func (g *gateSet) pureGate(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return g.pureGate(info, e.X)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			return g.pureGate(info, e.X) && g.pureGate(info, e.Y)
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
			if isNilOrLiteral(y) {
				return g.gateExpr(info, x)
			}
			if isNilOrLiteral(x) {
				return g.gateExpr(info, y)
			}
			return false
		}
	default:
		if t := info.TypeOf(cond); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsBoolean != 0 {
				return g.gateExpr(info, cond)
			}
		}
	}
	return false
}

func isNilOrLiteral(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.BasicLit:
		return true
	}
	return false
}

// condGates reports whether cond gates its THEN branch: some &&-conjunct
// is a pure gate condition (the branch runs only when the gate holds).
func (g *gateSet) condGates(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	if g.pureGate(info, cond) {
		return true
	}
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LAND {
		return g.condGates(info, b.X) || g.condGates(info, b.Y)
	}
	return false
}

// remainderGates reports whether an early-return `if cond { return }`
// gates the statements after it: the remainder runs only under ¬cond,
// which is gate-shaped when cond is a pure gate condition or when some
// ||-disjunct of cond is one (¬(A∨B) = ¬A∧¬B).
func (g *gateSet) remainderGates(info *types.Info, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	if g.pureGate(info, cond) {
		return true
	}
	if b, ok := cond.(*ast.BinaryExpr); ok && b.Op == token.LOR {
		return g.remainderGates(info, b.X) || g.remainderGates(info, b.Y)
	}
	return false
}

// terminatesFlow reports whether a statement list definitely leaves the
// enclosing block (return, panic, or a loop branch), making a guard-if
// above it dominate the remaining siblings.
func terminatesFlow(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// walkGuarded traverses a statement list calling visit on every
// expression-bearing node with the current guard state: guarded is true
// once the node is dominated by an observability gate (an enclosing
// gated if-branch, or a preceding early-return whose negation is
// gate-shaped). Function literals are traversed with the same state —
// closures on the hot path run on the hot path.
func walkGuarded(g *gateSet, info *types.Info, stmts []ast.Stmt, guarded bool, visit func(n ast.Node, guarded bool)) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				visitExprs(g, info, s.Init, guarded, visit)
			}
			visitExprs(g, info, s.Cond, guarded, visit)
			bodyGuarded := guarded || g.condGates(info, s.Cond)
			walkGuarded(g, info, s.Body.List, bodyGuarded, visit)
			if s.Else != nil {
				// The else branch is dominated by ¬cond; that is
				// gate-shaped exactly when cond is pure gate.
				elseGuarded := guarded || g.pureGate(info, s.Cond)
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					walkGuarded(g, info, e.List, elseGuarded, visit)
				case *ast.IfStmt:
					walkGuarded(g, info, []ast.Stmt{e}, elseGuarded, visit)
				}
			}
			if terminatesFlow(s.Body.List) && g.remainderGates(info, s.Cond) {
				guarded = true
			}
		case *ast.BlockStmt:
			walkGuarded(g, info, s.List, guarded, visit)
		case *ast.ForStmt:
			if s.Init != nil {
				visitExprs(g, info, s.Init, guarded, visit)
			}
			if s.Cond != nil {
				visitExprs(g, info, s.Cond, guarded, visit)
			}
			if s.Post != nil {
				visitExprs(g, info, s.Post, guarded, visit)
			}
			walkGuarded(g, info, s.Body.List, guarded, visit)
		case *ast.RangeStmt:
			visitExprs(g, info, s.X, guarded, visit)
			walkGuarded(g, info, s.Body.List, guarded, visit)
		case *ast.SwitchStmt:
			if s.Init != nil {
				visitExprs(g, info, s.Init, guarded, visit)
			}
			if s.Tag != nil {
				visitExprs(g, info, s.Tag, guarded, visit)
			}
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					for _, e := range c.List {
						visitExprs(g, info, e, guarded, visit)
					}
					walkGuarded(g, info, c.Body, guarded, visit)
				}
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				visitExprs(g, info, s.Init, guarded, visit)
			}
			visitExprs(g, info, s.Assign, guarded, visit)
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					walkGuarded(g, info, c.Body, guarded, visit)
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					if c.Comm != nil {
						visitExprs(g, info, c.Comm, guarded, visit)
					}
					walkGuarded(g, info, c.Body, guarded, visit)
				}
			}
		case *ast.LabeledStmt:
			walkGuarded(g, info, []ast.Stmt{s.Stmt}, guarded, visit)
		default:
			visitExprs(g, info, stmt, guarded, visit)
		}
	}
}

// visitExprs reports every node inside a simple statement at the given
// guard state, recursing into function literals with the same state.
func visitExprs(g *gateSet, info *types.Info, n ast.Node, guarded bool, visit func(n ast.Node, guarded bool)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if fl, ok := n.(*ast.FuncLit); ok {
			visit(fl, guarded)
			walkGuarded(g, info, fl.Body.List, guarded, visit)
			return false
		}
		visit(n, guarded)
		return true
	})
}

// funcDeclOf resolves an identifier to the *ast.FuncDecl it names, if
// the function is declared in a module package.
type declIndex map[*types.Func]*funcDecl

type funcDecl struct {
	pkg  *flowvet.Package
	decl *ast.FuncDecl
}

const declFactKey = "flowvet.decls"

// declsFor indexes (once per program) every function declaration in the
// module by its types.Func object.
func declsFor(prog *flowvet.Program) declIndex {
	if d, ok := prog.Facts[declFactKey].(declIndex); ok {
		return d
	}
	idx := declIndex{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = &funcDecl{pkg: pkg, decl: fd}
				}
			}
		}
	}
	prog.Facts[declFactKey] = idx
	return idx
}

// calleeOf resolves a call expression to the static *types.Func it
// invokes: package functions, methods with concrete receivers, and
// method expressions. Interface method calls and dynamic function
// values resolve to nil (documented hotpathclock limitation).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgPathOf returns the declaring package path of a function or method,
// "" for builtins.
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName returns the name of the method's receiver base type
// ("" for plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
