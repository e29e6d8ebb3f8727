// Package analysistest runs flowvet analyzers over fixture modules and
// checks their diagnostics against `// want` comments, as
// golang.org/x/tools/go/analysis/analysistest does. Only _test.go files
// import it.
package analysistest

import (
	"regexp"
	"strings"

	"flowmotif/internal/analysis/flowvet"
)

// wantRE matches analysistest-style expectation comments:
//
//	// want `regexp`
//	// want "regexp" "second regexp"
//
// Each quoted pattern on a line must be matched by exactly one
// diagnostic reported on that line.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// TestingT is the subset of *testing.T the harness needs.
type TestingT interface {
	Errorf(format string, args ...interface{})
	Fatalf(format string, args ...interface{})
	Helper()
}

// RunTest loads the fixture module rooted at dir, runs the analyzers
// over every package in it, and compares the diagnostics against
// `// want "regexp"` comments in the fixture sources: every want must be
// matched by a diagnostic on its line, and every diagnostic must be
// wanted. This is the analysistest contract, so fixtures read the same
// as upstream ones.
func RunTest(t TestingT, dir string, analyzers ...*flowvet.Analyzer) {
	t.Helper()
	prog, err := flowvet.LoadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("flowvet: load fixture %s: %v", dir, err)
	}
	diags, err := flowvet.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("flowvet: run: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					i := strings.Index(text, "want ")
					if i < 0 || strings.TrimSpace(text[:i]) != "" {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(text[i+len("want "):], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
		}
	}
}
