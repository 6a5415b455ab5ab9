package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ObsComplete keeps the observability vocabulary closed in both directions.
//
// Event kinds: every `obs.Event.What` value and every string handed to an
// emit wrapper (a first-party function whose string parameter is named
// "what") must be one of the `Kind*` constants declared in the obs package —
// the machine-readable registry that sinks, goldens, and dashboards match
// against. A new event kind therefore cannot ship without being registered,
// and inside obs itself two Kind constants may not share a value (the
// vocabulary stays a set).
//
// Protocol phases: a Protocol implementation's Phases() vocabulary (and any
// package-level `...Phases` variable feeding one) must be built from the
// `Phase*` constants declared in the protocol package, never from string
// literals — so a protocol cannot invent a phase name the fault injector and
// docs do not know. In the protocol package, a Phase constant belonging to
// no vocabulary is flagged as dead. In packages that report phases (passing
// Phase constants to a call such as the controller's phase()), referencing
// some but not all Phase constants is flagged at the protocol import: a
// declared phase with no emit site under-reports, and fault specs targeting
// it would silently never fire.
//
// Both vocabularies are discovered by constant-name prefix from the imported
// package's type information.
var ObsComplete = &Analyzer{
	Name: "obscomplete",
	Doc: "report obs event kinds missing from the Kind* vocabulary, duplicate kinds, " +
		"protocol phase vocabularies built from string literals, dead Phase* constants, " +
		"and packages that report only part of the phase vocabulary",
	Run: runObsComplete,
}

func runObsComplete(pass *Pass) error {
	kinds, obsIsSelf := vocabulary(pass, "obs", "Kind")
	phases, protoIsSelf := vocabulary(pass, "protocol", "Phase")

	if obsIsSelf {
		checkDuplicateKinds(pass)
	}
	if kinds != nil {
		checkEmitSites(pass, kinds)
	}
	checkPhaseLiterals(pass)
	if protoIsSelf {
		checkOrphanPhases(pass)
	} else if phases != nil {
		checkPhaseCoverage(pass, phases)
	}
	return nil
}

// vocabulary enumerates the string constants named prefix* in the package
// named pkgName — the analyzed package itself, or one of its direct
// imports. It returns the value set and whether the analyzed package is the
// vocabulary's home.
func vocabulary(pass *Pass, pkgName, prefix string) (map[string]bool, bool) {
	pkg := pass.Pkg
	self := pkg.Name() == pkgName
	if !self {
		pkg = nil
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				pkg = imp
				break
			}
		}
		if pkg == nil {
			return nil, false
		}
	}
	vocab := make(map[string]bool)
	for _, name := range pkg.Scope().Names() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		c, ok := pkg.Scope().Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.String {
			continue
		}
		vocab[constant.StringVal(c.Val())] = true
	}
	if len(vocab) == 0 {
		return nil, self
	}
	return vocab, self
}

// checkDuplicateKinds flags Kind constants sharing a value, inside obs.
func checkDuplicateKinds(pass *Pass) {
	first := make(map[string]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range spec.Names {
				c, ok := pass.TypesInfo.Defs[name].(*types.Const)
				if !ok || !strings.HasPrefix(name.Name, "Kind") || c.Val().Kind() != constant.String {
					continue
				}
				v := constant.StringVal(c.Val())
				if prev, dup := first[v]; dup {
					pass.Reportf(name.Pos(), "duplicate event kind %q: %s and %s register the same value", v, prev, name.Name)
				} else {
					first[v] = name.Name
				}
			}
			return true
		})
	}
}

// checkEmitSites verifies constant What strings at every emit site against
// the kind vocabulary: obs.Event composite literals, and arguments bound to
// a parameter named "what".
func checkEmitSites(pass *Pass, kinds map[string]bool) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isObsEventType(info.Types[n].Type) {
					return true
				}
				if what := eventWhatExpr(n); what != nil {
					if v, ok := stringConstValue(info, what); ok && !kinds[v] {
						pass.Reportf(what.Pos(), "event kind %q is not registered in the obs vocabulary; declare a Kind constant", v)
					}
				}
			case *ast.CallExpr:
				sig, ok := callSignature(info, n)
				if !ok {
					return true
				}
				params := sig.Params()
				for i, arg := range n.Args {
					if i >= params.Len() {
						break
					}
					p := params.At(i)
					if p.Name() != "what" || !isStringType(p.Type()) {
						continue
					}
					if v, ok := stringConstValue(info, arg); ok && !kinds[v] {
						pass.Reportf(arg.Pos(), "event kind %q is not registered in the obs vocabulary; declare a Kind constant", v)
					}
				}
			}
			return true
		})
	}
}

// isObsEventType reports whether t is the Event type of a package named obs.
func isObsEventType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

// eventWhatExpr extracts the What value from an obs.Event composite literal:
// the "What:" element of a keyed literal, or the fifth element (the What
// field's position) of a positional one.
func eventWhatExpr(lit *ast.CompositeLit) ast.Expr {
	keyed := false
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			keyed = true
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "What" {
				return kv.Value
			}
		}
	}
	if !keyed && len(lit.Elts) > 4 {
		return lit.Elts[4]
	}
	return nil
}

// callSignature resolves the signature a call invokes, for both static and
// dynamic callees; conversions and builtins report false.
func callSignature(info *types.Info, call *ast.CallExpr) (*types.Signature, bool) {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.IsType() {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// checkPhaseLiterals flags string literals used to build a phase vocabulary:
// inside a method or function named Phases, or in the initializer of a
// package-level variable whose name ends in "Phases".
func checkPhaseLiterals(pass *Pass) {
	flagLits := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				pass.Reportf(lit.Pos(), "phase vocabulary built from string literal %s; use a declared Phase constant", lit.Value)
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "Phases" && d.Body != nil {
					flagLits(d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if strings.HasSuffix(name.Name, "Phases") && i < len(vs.Values) {
							flagLits(vs.Values[i])
						}
					}
				}
			}
		}
	}
}

// checkOrphanPhases flags, inside the protocol package, Phase constants that
// appear in no Phases() vocabulary.
func checkOrphanPhases(pass *Pass) {
	// The declared Phase constants, by object.
	declared := make(map[types.Object]*ast.Ident)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range spec.Names {
				c, ok := pass.TypesInfo.Defs[name].(*types.Const)
				if ok && strings.HasPrefix(name.Name, "Phase") && c.Val().Kind() == constant.String {
					declared[c] = name
				}
			}
			return true
		})
	}
	if len(declared) == 0 {
		return
	}
	// Uses inside vocabulary-building positions.
	used := make(map[types.Object]bool)
	markUses := func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && declared[obj] != nil {
					used[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "Phases" && d.Body != nil {
					markUses(d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if strings.HasSuffix(name.Name, "Phases") && i < len(vs.Values) {
							markUses(vs.Values[i])
						}
					}
				}
			}
		}
	}
	for obj, id := range declared {
		if !used[obj] {
			pass.Reportf(id.Pos(), "phase constant %s appears in no Phases() vocabulary", id.Name)
		}
	}
}

// checkPhaseCoverage applies the reverse direction in phase-reporting
// packages: a package that passes some Phase constants as call arguments
// (the emit shape) must pass all of them, or a declared phase has no emit
// site. The finding is anchored at the protocol import.
func checkPhaseCoverage(pass *Pass, phases map[string]bool) {
	info := pass.TypesInfo
	reported := make(map[string]bool)
	var importPos ast.Node
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if strings.HasSuffix(strings.Trim(imp.Path.Value, `"`), "protocol") && importPos == nil {
				importPos = imp
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				var name string
				switch {
				case ok:
					name = id.Name
				default:
					sel, ok := ast.Unparen(arg).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					id, name = sel.Sel, sel.Sel.Name
				}
				c, ok := info.Uses[id].(*types.Const)
				if !ok || !strings.HasPrefix(name, "Phase") || c.Pkg() == nil || c.Pkg().Name() != "protocol" {
					continue
				}
				if c.Val().Kind() == constant.String {
					reported[constant.StringVal(c.Val())] = true
				}
			}
			return true
		})
	}
	if len(reported) == 0 || importPos == nil {
		return
	}
	var missing []string
	for v := range phases {
		if !reported[v] {
			missing = append(missing, fmt.Sprintf("%q", v))
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(importPos.Pos(),
		"package reports some protocol phases but never phase %s; every declared phase needs an emit site",
		strings.Join(missing, ", "))
}
