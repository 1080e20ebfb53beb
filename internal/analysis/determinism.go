package analysis

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the path segments of the packages whose output
// must be bit-identical across same-seed runs (DESIGN.md §8: the
// exhibits, the golden differential corpus, and the replay tooling all
// depend on it).
var determinismScope = []string{"sim", "dram", "memctrl", "core", "retention", "bch", "ecc"}

// randConstructors are the math/rand functions that build explicitly
// seeded generators; everything else at package level draws from the
// process-global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// Determinism forbids wall-clock reads, the process-global math/rand
// source, and map-order iteration in the simulation packages, where any
// run-to-run variation breaks deterministic replay. Program-wide, it
// also checks that every seed reaching a math/rand source constructor
// (NewSource, NewPCG, the global Seed) traces back to run
// configuration; see seed.go.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now, global math/rand, crypto/rand, and map-order " +
		"iteration in the simulation packages (sim, dram, memctrl, core, " +
		"retention, bch, ecc); everywhere, seeds reaching math/rand source " +
		"constructors must trace to a run-config seed (constant, " +
		"*seed*-named value, or //meccvet:seed helper)",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	inScope := anySegment(pass.PkgPath, determinismScope)
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if inScope {
				checkDeterministicCall(pass, n)
			}
			if isRandSink(funcObject(pass.Info, n.Fun)) {
				checkSink(pass, n, enclosingFuncDecl(stack))
			}
		case *ast.RangeStmt:
			if inScope {
				checkMapRange(pass, n)
			}
		}
		return true
	})
	return nil
}

func checkDeterministicCall(pass *Pass, call *ast.CallExpr) {
	obj := funcObject(pass.Info, call.Fun)
	if obj == nil {
		return
	}
	switch {
	case isPkgLevelFunc(obj, "time") && (obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until"):
		pass.Reportf(call.Pos(), "time.%s reads the wall clock; simulation code must derive time from cycle counts", obj.Name())
	case isPkgLevelFunc(obj, "math/rand") && !randConstructors[obj.Name()]:
		pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; thread a seeded *rand.Rand", obj.Name())
	case isPkgLevelFunc(obj, "math/rand/v2") && !randConstructors[obj.Name()]:
		pass.Reportf(call.Pos(), "rand/v2.%s is seeded from OS entropy; thread an explicitly seeded generator", obj.Name())
	case isPkgLevelFunc(obj, "crypto/rand"):
		pass.Reportf(call.Pos(), "crypto/rand.%s is nondeterministic by design; use a seeded *rand.Rand", obj.Name())
	}
}

// checkMapRange flags range statements over maps. The one recognized
// order-insensitive idiom is the map clear loop (`for k := range m {
// delete(m, k) }`); anything else — even loops that look commutative —
// must either iterate sorted keys or carry a //meccvet:allow
// justification, because a later edit can silently make the body
// order-sensitive.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isMapClearIdiom(rng) {
		return
	}
	pass.Reportf(rng.Pos(), "map iteration order is nondeterministic; iterate sorted keys (or justify with //meccvet:allow determinism)")
}

// isMapClearIdiom matches a range body that is exactly one
// delete(m, k) of the ranged map with the ranged key.
func isMapClearIdiom(rng *ast.RangeStmt) bool {
	if rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	es, ok := rng.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "delete" {
		return false
	}
	return types.ExprString(call.Args[0]) == types.ExprString(rng.X)
}
