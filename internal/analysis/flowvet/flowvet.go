// Package flowvet is a dependency-free core for project-specific static
// analysis, mirroring the golang.org/x/tools/go/analysis surface the
// repo's checkers need: Analyzer, Pass, Diagnostic and a multichecker
// driver. The analysistest-style fixture harness is package
// internal/analysis/analysistest.
//
// Why not x/tools itself: the runtime packages are deliberately
// dependency-free (ROADMAP north star), and the build environment pins
// the repo to the standard library. Everything an analyzer needs —
// parsed syntax with comments, full go/types information, and package
// metadata — is obtainable from the stdlib: `go list -export -deps
// -json` names every package's source files and its compiled export
// data in the build cache, module packages are type-checked from source
// in dependency order, and out-of-module imports are satisfied through
// go/importer's gc lookup mode reading that export data. Should the
// environment ever grow a vendored golang.org/x/tools, the analyzers
// port mechanically: the Run(*Pass) shape is the same.
//
// Beyond the x/tools surface, a Pass carries the whole Program: the
// hot-path analyzer is interprocedural (reachability from annotated
// roots crosses package boundaries), which the x/tools facts mechanism
// would express awkwardly and a whole-program view expresses directly.
package flowvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//flowvet:ignore <name>` suppression comments.
	Name string
	// Doc is the one-paragraph description `flowvet help` prints.
	Doc string
	// Run checks one package. Cross-package analyzers reach the rest of
	// the program through pass.Prog and may cache program-wide state in
	// prog.Facts under their own name.
	Run func(pass *Pass) error
}

// A Package is one type-checked module package: syntax with comments,
// the go/types package and full type info.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Program is the set of module packages under analysis, in dependency
// order (imports before importers), plus the shared FileSet.
type Program struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	ByPath map[string]*Package

	// ModulePath and ModuleDir name the module the packages belong to
	// and its root directory.
	ModulePath string
	ModuleDir  string

	// Facts holds analyzer-scoped program-wide state (e.g. the hot-path
	// call graph), keyed by analyzer name. Analyzers run sequentially,
	// so no locking.
	Facts map[string]interface{}
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// ignoreMarker is the in-source suppression escape hatch:
// `//flowvet:ignore <analyzer> <justification>` on the offending line
// (or the line above) suppresses that analyzer's diagnostics for the
// line. A bare `//flowvet:ignore` (no analyzer name) is invalid and
// suppresses nothing — every suppression names what it silences.
const ignoreMarker = "flowvet:ignore"

// Run executes every analyzer over every package of prog and returns the
// surviving diagnostics sorted by position, with `//flowvet:ignore`
// suppressions applied.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("flowvet: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = suppress(prog, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppress drops diagnostics covered by an ignore comment on the same
// line or the line immediately above.
func suppress(prog *Program, diags []Diagnostic) []Diagnostic {
	// ignores[file][line] = set of analyzer names suppressed there.
	ignores := map[string]map[int]map[string]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := cutMarker(c.Text, ignoreMarker)
					if !ok {
						continue
					}
					name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
					if name == "" {
						continue // unnamed suppression: inert by design
					}
					pos := prog.Fset.Position(c.Pos())
					m := ignores[pos.Filename]
					if m == nil {
						m = map[int]map[string]bool{}
						ignores[pos.Filename] = m
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if m[line] == nil {
							m[line] = map[string]bool{}
						}
						m[line][name] = true
					}
				}
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if names := ignores[d.Pos.Filename][d.Pos.Line]; names[d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// cutMarker extracts the text following marker in a `//`-style comment,
// tolerating an optional space after the slashes.
func cutMarker(comment, marker string) (rest string, ok bool) {
	s := strings.TrimPrefix(comment, "//")
	s = strings.TrimPrefix(s, " ")
	if !strings.HasPrefix(s, marker) {
		return "", false
	}
	return s[len(marker):], true
}

// HasMarker reports whether a comment group contains the given
// `//flowmotif:<marker>` (or any `//<marker>`) annotation, and returns
// the text following it on that line.
func HasMarker(cg *ast.CommentGroup, marker string) (rest string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if r, found := cutMarker(c.Text, marker); found {
			return strings.TrimSpace(r), true
		}
	}
	return "", false
}
