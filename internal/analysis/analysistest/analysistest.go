// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against expectations written in
// the fixtures themselves, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	rand.Int() // want `global random source`
//
// Each quoted string after "// want" is a regular expression that must
// match a diagnostic reported on that line; diagnostics with no matching
// expectation, and expectations with no matching diagnostic, fail the
// test.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gbcr/internal/analysis"
)

var wantRE = regexp.MustCompile("(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// Run loads each fixture package from dir (typically "testdata/src") and
// applies the analyzer, comparing diagnostics against // want comments.
//
//lint:allow-unused the fixture driver: its callers are the analyzers' tests, by design
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		loader := analysis.NewLoader(dir, "")
		loaded, err := loader.Load(pkg)
		if err != nil {
			t.Errorf("loading fixture %s: %v", pkg, err)
			continue
		}
		if a.WholeProgram {
			loaded = []*analysis.LoadedPackage{analysis.Merge(loaded)}
		}
		for _, lp := range loaded {
			diags, err := analysis.Run(a, loader.Fset, lp.Files, lp.Types, lp.Info)
			if err != nil {
				t.Errorf("%s on %s: %v", a.Name, lp.Path, err)
				continue
			}
			checkDiagnostics(t, loader, lp, a, diags)
		}
	}
}

type key struct {
	file string
	line int
}

func checkDiagnostics(t *testing.T, loader *analysis.Loader, lp *analysis.LoadedPackage, a *analysis.Analyzer, diags []analysis.Diagnostic) {
	t.Helper()

	// Collect expectations from // want comments.
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllString(c.Text[idx+len("// want "):], -1) {
					pattern := m
					if pattern[0] == '"' {
						var err error
						pattern, err = strconv.Unquote(m)
						if err != nil {
							t.Errorf("%s: bad want pattern %s: %v", k.file, m, err)
							continue
						}
					} else {
						pattern = strings.Trim(m, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", k.file, pattern, err)
						continue
					}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}

	// Match diagnostics against expectations.
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected %s diagnostic: %s", posString(pos.Filename, pos.Line), a.Name, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected %s diagnostic matching %q, got none", posString(k.file, k.line), a.Name, w.re)
			}
		}
	}
}

func posString(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}
