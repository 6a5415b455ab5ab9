// Command gbcrlint runs the repository's analyzer suite (simdeterminism,
// nopanic, guardedby, lockorder, shardconfine, allocfree, obscomplete,
// errpropagation — see internal/analysis).
//
// It works in two modes:
//
//	gbcrlint [-json] [./...]    # standalone: loads the module from source
//	go vet -vettool=$(which gbcrlint) ./...
//
// The second form speaks cmd/go's vet-tool protocol: it answers -V=full
// and -flags probes, then is invoked once per package with a JSON config
// file describing the compilation unit (file list, import map, export
// data).
//
// Exit status is a contract scripts may rely on:
//
//	0  the analyzed packages are clean
//	1  an operational error (unreadable package, parse or type-check
//	   failure, bad configuration) stopped the run
//	2  findings were reported
//
// Findings normally go to stderr as "file:line:col: [analyzer] message"
// lines. With -json (standalone mode only) they go to stdout instead, as a
// JSON array of {file, line, col, analyzer, message} objects — "[]" when
// clean — so CI can archive and diff them mechanically; operational errors
// stay on stderr.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gbcr/internal/analysis"
)

func main() {
	args := os.Args[1:]
	// cmd/go probes the tool before using it: -V=full must report a
	// version line, -flags the set of supported analyzer flags (none).
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Println("gbcrlint version v0.2.0")
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	jsonOut := false
	rest := args[:0:0]
	for _, a := range args {
		if a == "-json" || a == "--json" {
			jsonOut = true
			continue
		}
		rest = append(rest, a)
	}
	os.Exit(standalone(rest, jsonOut))
}

// scopeFor selects which analyzers apply to a package, by import path.
// The analyzers themselves are scope-free; policy lives here so the same
// checks can run over arbitrary fixture packages in tests.
func scopeFor(path string) []*analysis.Analyzer {
	// Normalize the test variants go vet presents:
	// "p [p.test]" (augmented) and "p_test" (external test package).
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	path = strings.TrimSuffix(path, ".test")

	var out []*analysis.Analyzer
	if simScoped(path) {
		out = append(out, analysis.SimDeterminism)
	}
	if simScoped(path) ||
		path == analysis.ModulePath+"/internal/obs" ||
		path == analysis.ModulePath+"/internal/fault" {
		// Sim-reachable state must be shard-confined before the parallel
		// kernel lands, and the event/phase vocabularies these packages
		// emit must stay closed.
		out = append(out, analysis.ShardConfine, analysis.ObsComplete)
	}
	if strings.HasPrefix(path, analysis.ModulePath+"/internal/") {
		out = append(out, analysis.NoPanic)
	}
	// lockorder generalizes guardedby package-wide; allocfree gates itself
	// on // alloc-free annotations, so both apply everywhere.
	out = append(out, analysis.GuardedBy, analysis.LockOrder, analysis.AllocFree, analysis.ErrPropagation)
	return out
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

// standalone loads the whole module from source, runs the suite, and
// reports findings on stderr (or stdout as JSON). Exit status follows the
// documented contract: 0 clean, 1 operational error, 2 findings.
func standalone(args []string, jsonOut bool) int {
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
	if filter := packageFilter(args, module); filter != nil {
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
	for _, path := range paths {
		loaded, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		for _, lp := range loaded {
			for _, a := range scopeFor(lp.Path) {
				found, err := analysis.Run(a, loader.Fset, lp.Files, lp.Types, lp.Info)
				if err != nil {
					return nil, err
				}
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
			}
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

// vetConfig mirrors the JSON cmd/go writes for each vet invocation.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one compilation unit described by a cmd/go vet config.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbcrlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gbcrlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite computes no facts, but cmd/go reads the output file to
	// cache dependency results, so always leave an (empty) one behind.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "gbcrlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "gbcrlint:", err)
			return 1
		}
		files = append(files, f)
	}

	// Resolve imports through the export data cmd/go compiled for us.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tconf := types.Config{Importer: importer.ForCompiler(fset, cfg.Compiler, lookup)}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "gbcrlint:", err)
		return 1
	}

	exit := 0
	for _, a := range scopeFor(cfg.ImportPath) {
		found, err := analysis.Run(a, fset, files, pkg, info)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gbcrlint:", err)
			return 1
		}
		for _, d := range found {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), a.Name, d.Message)
			exit = 2
		}
	}
	return exit
}
