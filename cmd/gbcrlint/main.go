// Command gbcrlint runs the repository's analyzer suite (simdeterminism,
// nopanic, errpropagation, unused — see internal/analysis):
//
//	gbcrlint [-json] [./...]
//
// It loads the module from source with analysis.Loader, the suite's one
// loader, because unused is a whole-program check: it runs once, over every
// package of the module together, and only when no pattern narrows the run.
//
// Exit status is a contract scripts may rely on:
//
//	0  the analyzed packages are clean
//	1  an operational error (unreadable package, parse or type-check
//	   failure, bad configuration) stopped the run
//	2  findings were reported
//
// Findings normally go to stderr as "file:line:col: [analyzer] message"
// lines. With -json they go to stdout instead, as a JSON array of
// {file, line, col, analyzer, message} objects — "[]" when clean — so CI
// can archive and diff them mechanically; operational errors stay on
// stderr.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gbcr/internal/analysis"
)

func main() {
	jsonOut := false
	var rest []string
	for _, a := range os.Args[1:] {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		rest = append(rest, a)
	}
	os.Exit(lint(rest, jsonOut))
}

// scopeFor selects which analyzers apply to a package, by import path.
// The analyzers themselves are scope-free; policy lives here so the same
// checks can run over arbitrary fixture packages in tests.
func scopeFor(path string) []*analysis.Analyzer {
	// The loader presents an external test package as "p_test".
	path = strings.TrimSuffix(path, "_test")

	var out []*analysis.Analyzer
	if simScoped(path) {
		out = append(out, analysis.SimDeterminism)
	}
	if strings.HasPrefix(path, analysis.ModulePath+"/internal/") {
		out = append(out, analysis.NoPanic)
	}
	// unused is not per-package (see runSuite).
	return append(out, analysis.ErrPropagation)
}

// simKernelPackages are the packages reachable from the sim kernel, whose
// results must be bit-identical across runs and worker schedules.
var simKernelPackages = []string{
	"sim", "ib", "storage", "blcr", "mpi", "cr", "model", "workload", "harness", "figures",
}

func simScoped(path string) bool {
	for _, name := range simKernelPackages {
		p := analysis.ModulePath + "/internal/" + name
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// A diagJSON is one finding in -json output; the field set is the
// machine-readable contract CI archives.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// lint loads the module from source, runs the suite, and reports findings
// on stderr (or stdout as JSON). Exit status follows the documented
// contract: 0 clean, 1 operational error, 2 findings.
func lint(args []string, jsonOut bool) int {
	root, module, err := findModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbcrlint:", err)
		return 1
	}
	diags, err := runSuite(root, module, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbcrlint:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "gbcrlint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// runSuite analyzes the module rooted at root, filtered by the package
// patterns in args, and returns all findings in a deterministic order. The
// returned slice is never nil, so an empty run marshals as "[]".
func runSuite(root, module string, args []string) ([]diagJSON, error) {
	loader := analysis.NewLoader(root, module)
	paths, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	filter := packageFilter(args, module)
	if filter != nil {
		kept := paths[:0]
		for _, p := range paths {
			if filter(p) {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			// A typo'd pattern must not read as "clean": the exit contract
			// reserves 0 for packages that were actually analyzed.
			return nil, fmt.Errorf("no packages match %s", strings.Join(args, " "))
		}
		paths = kept
	}
	diags := []diagJSON{}
	run := func(a *analysis.Analyzer, lp *analysis.LoadedPackage) error {
		found, err := analysis.Run(a, loader.Fset, lp.Files, lp.Types, lp.Info)
		for _, d := range found {
			pos := loader.Fset.Position(d.Pos)
			diags = append(diags, diagJSON{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
		return err
	}
	var program []*analysis.LoadedPackage
	for _, path := range paths {
		loaded, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		program = append(program, loaded...)
		for _, lp := range loaded {
			for _, a := range scopeFor(lp.Path) {
				if err := run(a, lp); err != nil {
					return nil, err
				}
			}
		}
	}
	// A reference can come from any package, so unused is only meaningful
	// with the whole module loaded.
	if filter == nil {
		if err := run(analysis.Unused, analysis.Merge(program)); err != nil {
			return nil, err
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// packageFilter interprets command-line package patterns ("./...",
// "./internal/...", "gbcr/internal/sim"). nil means everything.
func packageFilter(args []string, module string) func(string) bool {
	var prefixes []string
	var exact []string
	for _, a := range args {
		switch {
		case a == "./..." || a == "...":
			return nil
		case strings.HasSuffix(a, "/..."):
			p := strings.TrimSuffix(a, "/...")
			p = strings.TrimPrefix(p, "./")
			prefixes = append(prefixes, module+"/"+p)
		default:
			p := strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/")
			if !strings.HasPrefix(p, module) {
				p = module + "/" + p
			}
			exact = append(exact, p)
		}
	}
	if len(prefixes) == 0 && len(exact) == 0 {
		return nil
	}
	return func(path string) bool {
		for _, p := range exact {
			if path == p {
				return true
			}
		}
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
