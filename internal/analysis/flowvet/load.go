package flowvet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
		Dir  string
	}
	Error *struct {
		Err string
	}
	DepOnly bool
}

// LoadProgram type-checks the packages matching patterns in the module
// rooted at (or containing) dir. Module packages are parsed from source
// with comments and fully type-checked; imports from outside the module
// (the standard library, here) are satisfied from the compiler export
// data `go list -export` places in the build cache — so loading needs no
// network and no third-party machinery.
func LoadProgram(dir string, patterns []string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("flowvet: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	// Decode the dependency-ordered package stream: imports always
	// precede importers, so one forward pass type-checks cleanly.
	var listed []*listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("flowvet: decode go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		q := p
		listed = append(listed, &q)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		ByPath: map[string]*Package{},
		Facts:  map[string]interface{}{},
	}

	// The importer consults source-checked module packages first and
	// falls back to export data for everything else.
	checked := map[string]*types.Package{}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("flowvet: no export data for %q", path)
		}
		return os.Open(f)
	}
	gcImp := importer.ForCompiler(prog.Fset, "gc", lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return gcImp.Import(path)
	})

	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("flowvet: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue // satisfied from export data
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("flowvet: parse: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, prog.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("flowvet: typecheck %s: %w", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		prog.ModulePath, prog.ModuleDir = lp.Module.Path, lp.Module.Dir
		p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Pkg: pkg, Info: info}
		prog.Pkgs = append(prog.Pkgs, p)
		prog.ByPath[lp.ImportPath] = p
	}
	if len(prog.Pkgs) == 0 {
		return nil, fmt.Errorf("flowvet: no module packages matched %v under %s", patterns, dir)
	}
	return prog, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
