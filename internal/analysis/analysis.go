// Package analysis is a small, self-contained static-analysis framework
// modeled on the core of golang.org/x/tools/go/analysis. The module has no
// external dependencies, so the x/tools types are reimplemented here: an
// Analyzer bundles a named check, a Pass hands it one type-checked package,
// and diagnostics are plain positions plus messages.
//
// The framework owns the suppression mechanism shared by all checkers:
// a comment of the form
//
//	//lint:<directive> <reason>
//
// on the flagged line, or on the line immediately above it, silences the
// analyzer whose Directive matches. The reason is mandatory — a bare
// directive with no justification does not suppress anything — so every
// exemption in the tree documents why the invariant is allowed to bend.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix that identifies first-party code.
// The errpropagation analyzer uses it to decide which callees' errors must
// not be dropped.
const ModulePath = "gbcr"

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names.
	Name string

	// Doc is the one-paragraph description printed by gbcrlint -help.
	Doc string

	// Directive is the word after "lint:" that suppresses this analyzer
	// (e.g. "allow-panic"). Empty means "allow-<Name>".
	Directive string

	// IncludeTests selects whether _test.go files are analyzed.
	IncludeTests bool

	// WholeProgram marks a check that cannot be decided one package at a
	// time: it runs once, over the Merge of every loaded package.
	WholeProgram bool

	// Run performs the check on one package (or, for a WholeProgram
	// analyzer, the merged program), reporting findings through
	// pass.Reportf.
	Run func(pass *Pass) error
}

// directive returns the suppression directive word for the analyzer.
func (a *Analyzer) directive() string {
	if a.Directive != "" {
		return a.Directive
	}
	return "allow-" + a.Name
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	allow map[string]map[int]bool // filename -> lines carrying our directive
}

// Reportf records a diagnostic at pos unless a matching lint:allow
// directive covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportfAlways records a diagnostic regardless of suppression directives.
// It exists for findings about the directives themselves (e.g. nopanic
// auditing //lint:allow-panic reasons), which must not be silenced by the
// very comment they critique.
func (p *Pass) ReportfAlways(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether a lint:allow directive for this analyzer
// covers the line at pos (same line or the line immediately above).
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.allow == nil {
		p.allow = buildAllowIndex(p.Fset, p.Files, p.Analyzer.directive())
	}
	position := p.Fset.Position(pos)
	lines := p.allow[position.Filename]
	return lines[position.Line] || lines[position.Line-1]
}

// buildAllowIndex scans every comment in the package for
// "//lint:<directive> <reason>" and records which lines carry one.
// Directives with no reason are ignored: an exemption must say why.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, directive string) map[string]map[int]bool {
	idx := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				word, reason, _ := strings.Cut(text, " ")
				if word != directive || directiveReason(reason) == "" {
					continue
				}
				position := fset.Position(c.Pos())
				lines := idx[position.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					idx[position.Filename] = lines
				}
				lines[position.Line] = true
			}
		}
	}
	return idx
}

// directiveReason isolates the human-written reason of a lint directive,
// dropping any embedded line comment: a reason is prose, not another
// comment, and analysistest fixtures append "// want" expectations after
// directives.
func directiveReason(text string) string {
	if i := strings.Index(text, "//"); i >= 0 {
		text = text[:i]
	}
	return strings.TrimSpace(text)
}

// Run applies one analyzer to a type-checked package and returns its
// diagnostics sorted by position.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	if !a.IncludeTests {
		files = withoutTestFiles(fset, files)
	}
	pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// withoutTestFiles filters _test.go files from a package's file list.
func withoutTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// calleeFunc resolves the *types.Func a call expression invokes, looking
// through parentheses. It returns nil for builtins, conversions, and calls
// of function-typed values.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}
