package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A LoadedPackage is one parsed and type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Merge folds packages into the one unit a WholeProgram analyzer runs over:
// every file, and an Info holding the union of their Defs and Uses
// (identifiers are distinct nodes, so the union is well defined). Types is
// nil. One declaration is a different types.Object in each unit that sees
// it — Load checks a package with its tests, Import without — so such
// analyzers compare objects by position, never by identity.
func Merge(pkgs []*LoadedPackage) *LoadedPackage {
	m := &LoadedPackage{Info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, lp := range pkgs {
		m.Files = append(m.Files, lp.Files...)
		maps.Copy(m.Info.Defs, lp.Info.Defs)
		maps.Copy(m.Info.Uses, lp.Info.Uses)
	}
	return m
}

// A Loader parses and type-checks first-party packages rooted at a
// directory, resolving standard-library imports from source so no export
// data or network is needed. It is the suite's one loader: gbcrlint runs on
// it, and so do the analysistest fixtures (rooted at testdata/src with an
// empty module prefix).
type Loader struct {
	Fset   *token.FileSet
	Root   string // directory containing the package tree
	Module string // import-path prefix mapped to Root ("" maps any path)

	std  types.Importer
	pkgs map[string]*types.Package // import cache: base variants, no test files
}

// NewLoader returns a Loader for the package tree at root. Import paths
// beginning with module (or any path that resolves to a directory under
// root, when module is empty) are loaded from source; everything else is
// resolved as standard library.
func NewLoader(root, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		Root:   root,
		Module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*types.Package),
	}
}

// dirFor maps an import path to a first-party source directory, or "" if
// the path is not ours.
func (l *Loader) dirFor(path string) string {
	var dir string
	switch {
	case l.Module != "" && path == l.Module:
		dir = l.Root
	case l.Module != "" && strings.HasPrefix(path, l.Module+"/"):
		dir = filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
	case l.Module == "":
		dir = filepath.Join(l.Root, filepath.FromSlash(path))
	default:
		return ""
	}
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer. First-party packages are type-checked
// from source without their test files; the rest comes from the standard
// library importer.
//
//lint:allow-unused go/types calls it through types.Importer, an interface declared outside the program
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if dir := l.dirFor(path); dir != "" {
		files, err := l.parseDir(dir, baseFiles)
		if err != nil {
			return nil, err
		}
		pkg, _, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// Load type-checks the package at the import path for analysis, with its
// in-package test files included (mirroring go vet's "p [p.test]" unit).
// If the directory also holds an external test package (package foo_test),
// it is returned as a second LoadedPackage with "_test" appended to the
// path.
func (l *Loader) Load(path string) ([]*LoadedPackage, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("package %s not found under %s", path, l.Root)
	}
	var out []*LoadedPackage
	files, err := l.parseDir(dir, augmentedFiles)
	if err != nil {
		return nil, err
	}
	pkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	out = append(out, &LoadedPackage{Path: path, Files: files, Types: pkg, Info: info})

	xfiles, err := l.parseDir(dir, externalTestFiles)
	if err != nil {
		return nil, err
	}
	if len(xfiles) > 0 {
		xpkg, xinfo, err := l.check(path+"_test", xfiles)
		if err != nil {
			return nil, err
		}
		out = append(out, &LoadedPackage{Path: path + "_test", Files: xfiles, Types: xpkg, Info: xinfo})
	}
	return out, nil
}

// fileClass selects which files in a directory belong to a compilation
// unit: the plain package, the test-augmented package, or the external
// test package.
type fileClass int

const (
	baseFiles fileClass = iota
	augmentedFiles
	externalTestFiles
)

func (l *Loader) parseDir(dir string, class fileClass) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if class == baseFiles && strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		external := strings.HasSuffix(f.Name.Name, "_test")
		switch class {
		case externalTestFiles:
			if !external {
				continue
			}
		default:
			if external {
				continue
			}
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// ModulePackages enumerates the import paths of every package under the
// loader's root, skipping testdata, vendor, and hidden directories.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(l.Root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != path {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var dedup []string
	for _, p := range paths {
		if len(dedup) == 0 || dedup[len(dedup)-1] != p {
			dedup = append(dedup, p)
		}
	}
	return dedup, nil
}
