package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"flowmotif/internal/analysis/flowvet"
)

// Hotpathclock enforces the hot-path observability budget: in any
// function statically reachable from a `//flowmotif:hotpath` root, a
// clock read (time.Now, time.Since, timer construction) or an
// allocating formatter call (fmt.Sprintf, strconv.Itoa, strings.Join,
// ...) must be dominated by an observability gate — the DisableObs config
// flag, a nil-check of an obs instrument, or an `//flowmotif:obsgate`
// annotated field. With observability off, the hot path performs zero
// clock reads and zero formatting allocations; this analyzer is what
// makes that a property of the build rather than of reviewer memory.
//
// The optional `//flowmotif:hotpath noalloc` form additionally flags
// allocating syntax (make, new, composite literals, append, closures,
// string concatenation/conversion) in the annotated function itself.
//
// Known limitation: reachability follows direct calls and methods on
// concrete receivers; calls through interfaces or function values are
// not expanded.
var Hotpathclock = &flowvet.Analyzer{
	Name: "hotpathclock",
	Doc: "flag unguarded clock reads and allocating formatter calls in functions " +
		"reachable from //flowmotif:hotpath roots",
	Run: runHotpathclock,
}

// clockFuncs are the time-package entry points that read or arm a clock.
// time.Sleep is excluded: a hot-path function that sleeps is a different
// bug with a different analyzer-shaped answer.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "After": true, "Tick": true, "AfterFunc": true,
}

// allocFormatters maps package path -> function names whose every call
// allocates (result strings, boxed operands). fmt.Errorf is exempt:
// error paths are off the hot path by definition.
var allocFormatters = map[string]map[string]bool{
	"fmt": {"Sprintf": true, "Sprint": true, "Sprintln": true},
	"strconv": {
		"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "AppendInt": false,
	},
	"strings": {"Join": true, "Repeat": true},
}

type hotpathFact struct {
	// reach maps every reachable function to the root it was reached
	// from (for diagnostics).
	reach map[*types.Func]*types.Func
	// noalloc marks roots annotated `//flowmotif:hotpath noalloc`.
	noalloc map[*types.Func]bool
}

const hotpathFactKey = "flowvet.hotpath"

// hotpathReach computes (once per program) the set of functions
// statically reachable from hotpath roots along UNGUARDED call edges: a
// call that only happens under an observability gate is not on the
// obs-off hot path, so its callee inherits no budget from it.
func hotpathReach(prog *flowvet.Program) *hotpathFact {
	if f, ok := prog.Facts[hotpathFactKey].(*hotpathFact); ok {
		return f
	}
	decls := declsFor(prog)
	gates := gatesFor(prog)
	fact := &hotpathFact{reach: map[*types.Func]*types.Func{}, noalloc: map[*types.Func]bool{}}

	var roots []*types.Func
	for fn, fd := range decls {
		if rest, ok := flowvet.HasMarker(fd.decl.Doc, hotpathMarker); ok {
			roots = append(roots, fn)
			if strings.Contains(rest, "noalloc") {
				fact.noalloc[fn] = true
			}
		}
	}

	// BFS over the static call graph, following only unguarded edges.
	type item struct{ fn, root *types.Func }
	var queue []item
	for _, r := range roots {
		queue = append(queue, item{r, r})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if _, seen := fact.reach[it.fn]; seen {
			continue
		}
		fact.reach[it.fn] = it.root
		fd := decls[it.fn]
		if fd == nil {
			continue // out-of-module callee: not our code to check
		}
		walkGuarded(gates, fd.pkg.Info, fd.decl.Body.List, false, func(n ast.Node, guarded bool) {
			if guarded {
				return
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := calleeOf(fd.pkg.Info, call)
			if callee == nil || decls[callee] == nil {
				return
			}
			if _, seen := fact.reach[callee]; !seen {
				queue = append(queue, item{callee, it.root})
			}
		})
	}
	prog.Facts[hotpathFactKey] = fact
	return fact
}

func runHotpathclock(pass *flowvet.Pass) error {
	fact := hotpathReach(pass.Prog)
	if len(fact.reach) == 0 {
		return nil
	}
	gates := gatesFor(pass.Prog)
	info := pass.Pkg.Info

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			root, hot := fact.reach[fn]
			if !hot {
				continue
			}
			checkAlloc := fact.noalloc[fn]
			walkGuarded(gates, info, fd.Body.List, false, func(n ast.Node, guarded bool) {
				if guarded {
					return
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if inPanicArg(fd.Body, n) {
						return
					}
					if name, bad := flaggedCall(info, n); bad {
						pass.Reportf(n.Pos(),
							"%s in hot path (reachable from %s); dominate it with an observability gate or move it off the hot path",
							name, rootLabel(root, fn))
					}
				}
				if checkAlloc {
					reportAllocSyntax(pass, info, n, fn)
				}
			})
		}
	}
	return nil
}

func rootLabel(root, fn *types.Func) string {
	if root == fn {
		return "//flowmotif:hotpath root " + fn.Name()
	}
	return "//flowmotif:hotpath root " + root.Name()
}

// flaggedCall reports whether call is a clock read or an allocating
// formatter, returning a human-readable name for the diagnostic.
func flaggedCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil {
		return "", false
	}
	pkg := pkgPathOf(fn)
	switch pkg {
	case "time":
		if clockFuncs[fn.Name()] {
			return "clock read time." + fn.Name(), true
		}
	default:
		if names, ok := allocFormatters[pkg]; ok && names[fn.Name()] {
			return "allocating call " + pkg + "." + fn.Name(), true
		}
	}
	return "", false
}

// inPanicArg reports whether call appears inside the argument list of a
// panic(): the process is dying, formatting cost is irrelevant.
func inPanicArg(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
			ast.Inspect(c, func(m ast.Node) bool {
				if m == ast.Node(call) {
					found = true
				}
				return !found
			})
			return false
		}
		return true
	})
	return found
}

// reportAllocSyntax flags syntactic allocations for noalloc roots.
func reportAllocSyntax(pass *flowvet.Pass, info *types.Info, n ast.Node, fn *types.Func) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			_, isBuiltin := info.Uses[id].(*types.Builtin)
			switch id.Name {
			case "make", "new":
				if isBuiltin { // the builtin, not a shadowing decl
					pass.Reportf(n.Pos(), "%s allocates in noalloc hot path %s", id.Name, fn.Name())
				}
			case "append":
				if isBuiltin {
					pass.Reportf(n.Pos(), "append may allocate in noalloc hot path %s", fn.Name())
				}
			}
		}
		// string(...) conversions of byte slices allocate.
		if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				pass.Reportf(n.Pos(), "string conversion allocates in noalloc hot path %s", fn.Name())
			}
		}
	case *ast.CompositeLit:
		pass.Reportf(n.Pos(), "composite literal allocates in noalloc hot path %s", fn.Name())
	case *ast.FuncLit:
		pass.Reportf(n.Pos(), "closure allocates in noalloc hot path %s", fn.Name())
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t := info.TypeOf(n); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					pass.Reportf(n.Pos(), "string concatenation allocates in noalloc hot path %s", fn.Name())
				}
			}
		}
	}
}
