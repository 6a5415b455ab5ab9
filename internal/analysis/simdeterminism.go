package analysis

import (
	"go/ast"
	"go/types"
)

// SimDeterminism enforces the simulator's determinism contract: packages in
// the simulation stack may not consult the wall clock, draw from the global
// (process-seeded) math/rand source, or iterate maps in a way that can leak
// iteration order into results. Virtual time comes from the sim.Kernel,
// randomness from an explicitly seeded *rand.Rand, and map walks must sort
// their keys first.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "report wall-clock calls, global math/rand use, and unsorted map iteration " +
		"in simulation packages; results must be bit-identical across runs and schedules",
	IncludeTests: true,
	Run:          runSimDeterminism,
}

// bannedTimeFuncs are the package-level time functions that read or wait on
// the wall clock. Pure constructors like time.Date and unit conversions are
// fine: they do not observe the host.
var bannedTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors build deterministic sources from explicit seeds; every
// other package-level rand function draws from the shared global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSimDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n.Fun)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					// Methods (e.g. on an explicitly seeded *rand.Rand)
					// are deterministic given a deterministic receiver.
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if bannedTimeFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"call to time.%s reads the wall clock; simulated time must come from the sim.Kernel",
							fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if randConstructors[fn.Name()] {
						// rand.New(rand.NewSource(seed)) is the remedy,
						// not the disease: constructors touch no global
						// state.
						return true
					}
					pass.Reportf(n.Pos(),
						"%s.%s draws from the global random source; use an explicitly seeded rand.New(rand.NewSource(...))",
						fn.Pkg().Name(), fn.Name())
				}
			case *ast.RangeStmt:
				if n.X == nil {
					return true
				}
				if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(),
						"map iteration order is nondeterministic; iterate over sorted keys so results cannot depend on it")
				}
			}
			return true
		})
	}
	return nil
}
