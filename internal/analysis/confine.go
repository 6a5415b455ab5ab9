package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Confine guards the one place the tree runs simulations concurrently: the
// harness Runner measures cells side by side, one kernel per worker
// goroutine. A kernel runs everything it owns on one goroutine at a time, so
// state reachable from a single kernel needs no synchronization — but
// package-level mutable state in a sim-reachable package is seen by every
// live kernel, and a goroutine or concurrency primitive is by construction
// something two of them can meet at. Each such construct must say how the
// sharing is synchronized, with
//
//	// shared: <channel|mutex|atomic> [rationale]
//
// on its own line or the line above. The analyzer flags, when unannotated:
//
//   - struct fields and local variables of concurrency-bearing types
//     (channels, sync.Mutex/RWMutex/Once/WaitGroup/Cond/Map, sync/atomic
//     types);
//   - goroutine launches;
//   - package-level variables that any function in the package writes, or
//     whose type is concurrency-bearing. Initialization in the declaration
//     is not a write; read-only tables of plain types stay unannotated.
//
// The declared mechanism must match the type — a channel says "shared:
// channel", a mutex "shared: mutex", an atomic "shared: atomic" — so the
// annotation documents how, not just that. The check is declaration-driven
// and conservative: it does not prove confinement, it forces every potential
// sharing point to be declared and reviewed.
var Confine = &Analyzer{
	Name: "confine",
	Doc: "report state that kernels running side by side could share (concurrency-typed " +
		"fields and locals, goroutine launches, written package-level variables) and that " +
		"lacks a // shared: <channel|mutex|atomic> declaration",
	Run: runConfine,
}

func runConfine(pass *Pass) error {
	shared := collectSharedAnnotations(pass)
	// declared returns the mechanism of the // shared: annotation on the
	// line of pos or the line above.
	declared := func(pos token.Pos) (string, bool) {
		position := pass.Fset.Position(pos)
		lines := shared[position.Filename]
		mech, ok := lines[position.Line]
		if !ok {
			mech, ok = lines[position.Line-1]
		}
		return mech, ok
	}
	// requireShared checks that the declaration at pos is annotated with
	// the mechanism its type calls for ("" accepts any).
	requireShared := func(pos token.Pos, mech, what string) {
		got, ok := declared(pos)
		switch {
		case !ok:
			want := mech
			if want == "" {
				want = "<channel|mutex|atomic>"
			}
			pass.Reportf(pos, "%s can be shared between concurrent kernels; confine it to one or declare // shared: %s", what, want)
		case mech != "" && got != mech:
			pass.Reportf(pos, "%s is declared // shared: %s but its type requires // shared: %s", what, got, mech)
		}
	}

	var pkgVars []*ast.Ident               // package-level variable declarations
	written := make(map[types.Object]bool) // objects some statement assigns to
	// declares handles one variable declaration: locals are checked on the
	// spot, package-level ones once every write has been seen.
	declares := func(id *ast.Ident) {
		obj, ok := pass.TypesInfo.Defs[id].(*types.Var)
		switch {
		case !ok:
		case obj.Parent() == pass.Pkg.Scope():
			pkgVars = append(pkgVars, id)
		default:
			if mech := sharingCategory(obj.Type()); mech != "" {
				requireShared(id.Pos(), mech, "local "+id.Name)
			}
		}
	}
	writes := func(lhs ast.Expr) {
		if id := rootIdent(lhs); id != nil {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				written[obj] = true
			}
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
			case *ast.GoStmt:
				if _, ok := declared(n.Pos()); !ok {
					pass.Reportf(n.Pos(), "goroutine launch runs beside the kernel; route the work through kernel events or declare // shared: <mechanism>")
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					declares(name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE {
						declares(id)
					}
					writes(lhs)
				}
			case *ast.IncDecStmt:
				writes(n.X)
			}
			return true
		})
	}
	for _, id := range pkgVars {
		obj := pass.TypesInfo.Defs[id]
		mech := sharingCategory(obj.Type())
		// A concurrency-typed package var is shared machinery even if never
		// reassigned; any other matters only once something writes it.
		if mech != "" || written[obj] {
			requireShared(id.Pos(), mech, "package-level variable "+id.Name)
		}
	}
	return nil
}

// rootIdent walks an lvalue (x, x.f, x[i], *x, combinations) to its root
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sharingCategory maps a type to the synchronization mechanism its sharing
// must declare, or "" for types that carry no concurrency machinery.
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
				if mech != "channel" && mech != "mutex" && mech != "atomic" {
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
