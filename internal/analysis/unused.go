package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unused finds code that nothing but its own tests reaches. Candidates are
// declarations in non-test files of packages under an internal/ directory,
// where the question is decidable: no importer exists that the loader
// cannot see. References are counted over the whole program. Three rules,
// each named by the first word of its message:
//
//   - dead: a package-level name or a method with no reference anywhere
//     outside its own declaration, tests included;
//   - unwired: an exported name — type, function, method, constant or
//     variable — that only _test.go files reference: tested, never called;
//   - neverset: a field of a struct named Config or Options that no
//     non-test code assigns (keyed composite literal, assignment, ++/--, or
//     address taken) — an option with one value in use.
//
// Where a reference can be invisible the pass stays quiet: a method whose
// name any interface in the program declares may be called through that
// interface, and fmt and encoding find theirs by reflection. Findings come
// in layers — deleting a dead function can leave the type it used dead —
// so the pass is re-run until clean.
var Unused = &Analyzer{
	Name: "unused",
	Doc: "report internal/ declarations nothing reaches: dead (no reference at all), unwired " +
		"(exported, referenced only from tests), neverset (Config/Options field no non-test " +
		"code assigns); exempt one with //lint:allow-unused <reason>",
	IncludeTests: true,
	WholeProgram: true,
	Run:          runUnused,
}

// reflectiveMethods are looked up at run time by fmt and encoding/*, so no
// call to them ever appears in source.
var reflectiveMethods = map[string]bool{
	"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// An unusedDecl is one candidate declaration.
type unusedDecl struct {
	id   *ast.Ident
	name string // Name, or Type.Name for a method or field
	kind unusedKind
}

type unusedKind int

const (
	plainDecl  unusedKind = iota // dead applies, and unwired if exported
	methodDecl                   // concrete method: as plainDecl unless an interface could call it
	fieldDecl                    // Config/Options field: neverset applies
)

// A declUse records how the rest of the program touches one declaration.
type declUse struct {
	prod, test bool // referenced from a non-test / a _test.go file
	set        bool // assigned by non-test code
}

func runUnused(pass *Pass) error {
	info := pass.TypesInfo
	// One declaration is a distinct types.Object in each unit that sees it
	// (see Merge); its position is the same in all of them.
	uses := make(map[token.Position]*declUse)
	useOf := func(obj types.Object) *declUse {
		k := pass.Fset.Position(obj.Pos())
		if uses[k] == nil {
			uses[k] = new(declUse)
		}
		return uses[k]
	}
	ifaceMethods := make(map[string]bool) // declared by any interface in the program
	var decls []unusedDecl

	for _, f := range pass.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		candidate := func(id *ast.Ident, name string, kind unusedKind) {
			obj := info.Defs[id]
			if !isTest && obj != nil && id.Name != "_" && id.Name != "init" &&
				strings.Contains("/"+obj.Pkg().Path()+"/", "/internal/") {
				decls = append(decls, unusedDecl{id, name, kind})
			}
		}
		assigned := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok && !isTest && info.Uses[id] != nil {
				useOf(info.Uses[id]).set = true
			}
		}
		var self token.Pos // the declaration being walked: its references to itself do not count
		walk := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pos() != self {
					if isTest {
						useOf(obj).test = true
					} else {
						useOf(obj).prod = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.KeyValueExpr: // T{Field: v}
				assigned(n.Key)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			case *ast.UnaryExpr: // &cfg.Field, handed to a setter such as flag.IntVar
				if n.Op == token.AND {
					assigned(n.X)
				}
			}
			return true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					candidate(d.Name, d.Name.Name, plainDecl)
				} else if len(d.Recv.List) == 1 {
					recv := strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*")
					candidate(d.Name, recv+"."+d.Name.Name, methodDecl)
				}
				// The receiver is skipped: having methods does not use a type.
				self = d.Name.Pos()
				ast.Inspect(d.Type, walk)
				if d.Body != nil {
					ast.Inspect(d.Body, walk)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					self = token.NoPos
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							candidate(name, name.Name, plainDecl)
						}
					case *ast.TypeSpec:
						self = s.Name.Pos()
						candidate(s.Name, s.Name.Name, plainDecl)
						var members []*ast.Field
						kind := plainDecl // an interface's own methods
						switch t := s.Type.(type) {
						case *ast.InterfaceType:
							members = t.Methods.List
						case *ast.StructType:
							if s.Name.Name == "Config" || s.Name.Name == "Options" {
								members, kind = t.Fields.List, fieldDecl
							}
						}
						for _, m := range members {
							for _, name := range m.Names {
								candidate(name, s.Name.Name+"."+name.Name, kind)
							}
						}
					}
					ast.Inspect(spec, walk)
				}
			}
		}
	}

	for _, d := range decls {
		obj := info.Defs[d.id]
		u, name := useOf(obj), obj.Pkg().Name()+"."+d.name
		switch {
		case d.kind == fieldDecl:
			if !u.set {
				pass.Reportf(d.id.Pos(), "neverset: no non-test code assigns %s; make it a constant or delete it", name)
			}
		case d.kind == methodDecl && ifaceMethods[d.id.Name], reflectiveMethods[d.id.Name]:
		case !u.prod && !u.test:
			pass.Reportf(d.id.Pos(), "dead: nothing references %s", name)
		case !u.prod && d.id.IsExported():
			pass.Reportf(d.id.Pos(), "unwired: only _test.go files reference %s", name)
		}
	}
	return nil
}
