package checks

import (
	"errors"
	"fmt"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"flowmotif/internal/analysis/flowvet"
)

// Deadexport keeps production packages to what production reaches. An
// exported identifier declared in a non-test file of an internal/
// package must be referenced by some non-test file of the module or of
// its bench/ module; one that only tests reach belongs in a test-support
// package, whose name ends in "test" and which only _test.go files may
// import. Three kinds of export are exempt: a method that implements an
// interface (its callers reach it through the interface), a method of a
// type the module's root package re-exports by alias (it is public API),
// and anything declared in a *test package.
var Deadexport = &flowvet.Analyzer{
	Name: deadexportName,
	Doc: "exported identifiers of internal/ packages need a non-test reference " +
		"in the module or bench/; only _test.go files import *test packages",
	Run: runDeadexport,
}

// deadexportName keys the analyzer's program-wide facts.
const deadexportName = "deadexport"

// companionModule is the directory, under the module root, of a nested
// module whose non-test files also count as references.
const companionModule = "bench"

func runDeadexport(pass *flowvet.Pass) error {
	dead, err := deadExports(pass.Prog)
	if err != nil {
		return err
	}
	if isTestSupport(pass.Pkg.Pkg) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if imp := pass.Prog.ByPath[path]; imp != nil && isTestSupport(imp.Pkg) {
				pass.Reportf(spec.Pos(), "non-test file imports test-support package %s", path)
			}
		}
		for _, id := range exportedDecls(f) {
			if obj := pass.Pkg.Info.Defs[id]; obj != nil && dead[objKey(obj)] {
				pass.Reportf(id.Pos(), "exported %s has no non-test reference; delete it, unexport it or move it to a *test package", displayName(obj))
			}
		}
	}
	return nil
}

// deadExports returns the keys of the module's dead exports. It counts
// references over the whole module even when flowvet runs over fewer
// packages, and computes the set once per program.
func deadExports(prog *flowvet.Program) (map[string]bool, error) {
	if dead, ok := prog.Facts[deadexportName].(map[string]bool); ok {
		return dead, nil
	}
	whole, err := wholeModule(prog)
	if err != nil {
		return nil, err
	}
	progs := []*flowvet.Program{whole}
	dir := filepath.Join(whole.ModuleDir, companionModule)
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		companion, err := flowvet.LoadProgram(dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		progs = append(progs, companion)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	used := map[string]bool{}
	for _, p := range progs {
		for _, pkg := range p.Pkgs {
			if isTestSupport(pkg.Pkg) {
				continue // what only test support reaches, only tests reach
			}
			for _, obj := range pkg.Info.Uses {
				used[objKey(obj)] = true
			}
		}
	}

	aliased := map[string]bool{}
	if root := whole.ByPath[whole.ModulePath]; root != nil {
		scope := root.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[typeKey(named.Obj())] = true
				}
			}
		}
	}
	ifaces := interfacesByMethod(whole)

	dead := map[string]bool{}
	for _, pkg := range whole.Pkgs {
		if !isInternal(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, id := range exportedDecls(f) {
				obj := pkg.Info.Defs[id]
				if obj == nil || used[objKey(obj)] {
					continue
				}
				if named := recvNamed(obj); named != nil &&
					(aliased[typeKey(named.Obj())] || implements(named, ifaces[obj.Name()])) {
					continue
				}
				dead[objKey(obj)] = true
			}
		}
	}
	prog.Facts[deadexportName] = dead
	return dead, nil
}

// wholeModule returns prog when it holds every package of its module,
// and otherwise the whole module loaded afresh.
func wholeModule(prog *flowvet.Program) (*flowvet.Program, error) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = prog.ModuleDir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("deadexport: go list ./... in %s: %w", prog.ModuleDir, err)
	}
	for _, path := range strings.Fields(string(out)) {
		if prog.ByPath[path] == nil {
			return flowvet.LoadProgram(prog.ModuleDir, []string{"./..."})
		}
	}
	return prog, nil
}

// interfacesByMethod indexes, by method name, the interfaces a method of
// prog can implement: those of every package prog imports, the standard
// library's included (fmt.Stringer, heap.Interface, error), and the
// interface literals its own code writes.
func interfacesByMethod(prog *flowvet.Program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || iface.NumMethods() == 0 || !iface.IsMethodSet() {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	walked := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if walked[pkg] {
			return
		}
		walked[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		walk(pkg.Pkg)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// implements reports whether named or a pointer to it implements one of
// ifaces.
func implements(named *types.Named, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// exportedDecls returns the names of f's exported top-level declarations:
// functions, methods, types, variables and constants.
func exportedDecls(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	keep := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			keep(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					keep(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						keep(id)
					}
				}
			}
		}
	}
	return names
}

// objKey names obj the same way in every program that loads its
// package, whether from source or from export data.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if named := recvNamed(obj); named != nil {
		return typeKey(named.Obj()) + "." + obj.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a field, a local or an interface literal's method
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func typeKey(tn *types.TypeName) string {
	return tn.Pkg().Path() + "." + tn.Name()
}

// recvNamed returns the named type a method is declared on, or nil for
// anything else.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

func displayName(obj types.Object) string {
	if named := recvNamed(obj); named != nil {
		return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// isTestSupport reports whether pkg follows the test-support naming
// convention: its name ends in "test".
func isTestSupport(pkg *types.Package) bool {
	return strings.HasSuffix(pkg.Name(), "test")
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
