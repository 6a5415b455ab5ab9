package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardConfine establishes the confinement contract concurrent cells rely
// on. The harness Runner measures cells side by side, one kernel per worker
// goroutine, so package-level mutable state in a sim-reachable package is
// shared between live kernels, and a goroutine or concurrency primitive
// outside the kernel's hand-off escapes its one-goroutine-at-a-time
// guarantee. State is therefore owned by exactly one kernel and crosses rank
// boundaries only through kernel events — unless a declaration explicitly
// opts in to shared mutability with
//
//	// shared: <channel|mutex|atomic> [rationale]
//
// on its own line or the line above. The analyzer flags every construct that
// smuggles shared mutable state past the kernel:
//
//   - struct fields and local declarations of concurrency-bearing types
//     (channels, sync.Mutex/RWMutex/Once/WaitGroup/Cond/Map, sync/atomic
//     types) without a // shared: annotation;
//   - goroutine launches (a second goroutine runs beside the kernel, not
//     under it) without one;
//   - package-level variables that any function in the package writes —
//     with several kernels live at once every package-level write is a
//     write to state another cell can see.
//
// The declared mechanism must match the type: a channel field must say
// "shared: channel", a mutex "shared: mutex", an atomic "shared: atomic" —
// so the annotation documents how the sharing is synchronized, not just
// that it exists. The check is declaration-driven and conservative: it does
// not prove confinement, it forces every potential sharing point to be
// declared and reviewed.
var ShardConfine = &Analyzer{
	Name: "shardconfine",
	Doc: "report shared mutable state in sim-reachable packages (concurrency-typed " +
		"fields and locals, goroutine launches, written package-level variables) that " +
		"lacks a // shared: <channel|mutex|atomic> declaration",
	Run: runShardConfine,
}

// sharedMechanisms are the synchronization mechanisms a // shared:
// annotation may declare.
var sharedMechanisms = map[string]bool{"channel": true, "mutex": true, "atomic": true}

func runShardConfine(pass *Pass) error {
	shared := collectSharedAnnotations(pass)

	// requireShared checks that the declaration at pos carries a // shared:
	// annotation whose mechanism matches the type's category.
	requireShared := func(pos token.Pos, mech, what string) {
		position := pass.Fset.Position(pos)
		lines := shared[position.Filename]
		got, ok := lines[position.Line]
		if !ok {
			got, ok = lines[position.Line-1]
		}
		switch {
		case !ok:
			want := mech
			if want == "" {
				want = "<channel|mutex|atomic>"
			}
			pass.Reportf(pos, "%s is cross-shard shared state; confine it to the kernel or declare // shared: %s", what, want)
		case mech != "" && got != mech:
			pass.Reportf(pos, "%s is declared // shared: %s but its type requires // shared: %s", what, got, mech)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					t := pass.TypesInfo.Types[field.Type].Type
					mech := sharingCategory(t)
					if mech == "" {
						continue
					}
					name := "embedded " + types.TypeString(t, types.RelativeTo(pass.Pkg))
					if len(field.Names) > 0 {
						name = "field " + field.Names[0].Name
					}
					requireShared(field.Pos(), mech, name)
				}
				return true
			case *ast.GoStmt:
				position := pass.Fset.Position(n.Pos())
				lines := shared[position.Filename]
				if _, ok := lines[position.Line]; ok {
					return true
				}
				if _, ok := lines[position.Line-1]; ok {
					return true
				}
				pass.Reportf(n.Pos(), "goroutine launch leaves the shard; route the work through kernel events or declare // shared: <mechanism>")
				return true
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLocalSharing(pass, n.Body, requireShared)
				}
				return true
			}
			return true
		})
	}

	checkPackageVars(pass, requireShared)
	return nil
}

// checkLocalSharing flags concurrency-typed local declarations.
func checkLocalSharing(pass *Pass, body *ast.BlockStmt, requireShared func(token.Pos, string, string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if mech := sharingCategory(obj.Type()); mech != "" {
						requireShared(name.Pos(), mech, "local "+name.Name)
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
				if !ok {
					continue
				}
				if mech := sharingCategory(obj.Type()); mech != "" {
					requireShared(id.Pos(), mech, "local "+id.Name)
				}
			}
		}
		return true
	})
}

// checkPackageVars flags package-level variables that are written from any
// function body in the package — with concurrent cells a package-level
// write is visible to every live kernel — plus any package-level variable of a
// concurrency-bearing type, which is shared machinery by construction.
// Initialization in the var declaration itself is not a write; read-only
// tables of plain types stay unannotated.
func checkPackageVars(pass *Pass, requireShared func(token.Pos, string, string)) {
	// Package-level var objects and their declaration sites.
	decls := make(map[types.Object]*ast.Ident)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						decls[obj] = name
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		return
	}
	written := make(map[types.Object]bool)
	note := func(e ast.Expr) {
		if id, ok := rootIdent(e); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && decls[obj] != nil {
				written[obj] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					note(lhs)
				}
			case *ast.IncDecStmt:
				note(n.X)
			}
			return true
		})
	}
	for obj, id := range decls {
		mech := sharingCategory(obj.Type())
		// A concurrency-typed package var is shared machinery even if never
		// reassigned; any other package var matters only once something
		// writes it.
		if mech == "" && !written[obj] {
			continue
		}
		requireShared(id.Pos(), mech, "package-level variable "+id.Name)
	}
}

// rootIdent walks an lvalue (x, x.f, x[i], *x, combinations) to its root
// identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// sharingCategory maps a type to the synchronization mechanism its sharing
// must declare, or "" for types that carry no cross-shard machinery.
func sharingCategory(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return "channel"
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch pkg {
	case "sync":
		switch name {
		case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond", "Map", "Locker":
			return "mutex"
		}
	case "sync/atomic":
		if strings.HasPrefix(name, "Int") || strings.HasPrefix(name, "Uint") ||
			name == "Bool" || name == "Value" || name == "Pointer" {
			return "atomic"
		}
	}
	return ""
}

// collectSharedAnnotations indexes "// shared: <mechanism>" comments by file
// and line. Unknown mechanisms are reported where they stand, so a typo
// cannot silently grant an exemption.
func collectSharedAnnotations(pass *Pass) map[string]map[int]string {
	idx := make(map[string]map[int]string)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// shared:")
				if !ok {
					continue
				}
				mech, _, _ := strings.Cut(strings.TrimSpace(text), " ")
				if !sharedMechanisms[mech] {
					pass.Reportf(c.Pos(), "unknown sharing mechanism %q in // shared: annotation (want channel, mutex, or atomic)", mech)
					continue
				}
				position := pass.Fset.Position(c.Pos())
				lines := idx[position.Filename]
				if lines == nil {
					lines = make(map[int]string)
					idx[position.Filename] = lines
				}
				lines[position.Line] = mech
			}
		}
	}
	return idx
}
