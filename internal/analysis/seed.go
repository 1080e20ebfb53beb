package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// seed.go is determinism's program-wide seed-provenance check, a taint
// analysis over rand-source construction: every seed reaching a
// math/rand source constructor (NewSource, NewPCG, the global Seed)
// must trace back to a run-config seed — an integer constant, a
// *seed*-named parameter, variable, or config field, or the result of a
// //meccvet:seed-annotated derivation helper. Provenance propagates
// through each function over its SSA form and across function
// boundaries through the call graph: a seed that is a plain parameter
// is checked at every call site, and a callee's return provenance is
// summarized and substituted at the caller. Wall-clock reads, the
// process-global rand source, and process state (pid, environment)
// taint everything they touch.

// provKind is the seed-provenance lattice, ordered by rank: unknown <
// seeded < param < opaque < tainted.
type provKind uint8

const (
	provUnknown provKind = iota // bottom: no information
	provSeeded                  // traceable to a run-config seed
	provParam                   // exactly one plain parameter: check call sites
	provOpaque                  // untraceable (join of mixed origins, memory, externals)
	provTainted                 // reaches a known nondeterministic source
)

// prov is one abstract seed-provenance value.
type prov struct {
	kind   provKind
	param  *types.Var // provParam: the parameter the value flows from
	reason string     // provTainted: the nondeterministic origin
}

// joinProv is the lattice join: higher rank wins, so a parameter
// joined with a traceable seed stays checkable at the parameter's call
// sites, and either of two taint reasons serves. Two different
// parameters collapse to opaque because a single substitution site no
// longer exists.
func joinProv(a, b prov) prov {
	switch {
	case a == b:
		return a
	case a.kind == provParam && b.kind == provParam:
		return prov{kind: provOpaque}
	case a.kind < b.kind:
		return b
	}
	return a
}

// seedish reports whether an identifier names a seed by convention.
func seedish(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// randSinks are the math/rand(/v2) constructors whose integer arguments
// must carry seed provenance.
var randSinks = map[string]bool{"NewSource": true, "NewPCG": true, "Seed": true}

// isRandSink reports whether a call target is a math/rand(/v2) source
// constructor.
func isRandSink(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !randSinks[fn.Name()] || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}

// checkSink evaluates the provenance of every argument of one rand
// source constructor inside fd (nil at package level).
func checkSink(pass *Pass, call *ast.CallExpr, fd *ast.FuncDecl) {
	var fi *FuncInfo
	if fd != nil {
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		fi = pass.Prog.FuncOf(fn)
	}
	ctx := &provCtx{prog: pass.Prog, info: pass.Info}
	if fi != nil {
		ctx = pass.Prog.provCtxOf(fi)
	}
	for _, arg := range call.Args {
		p := ctx.eval(arg)
		switch p.kind {
		case provSeeded, provUnknown:
			// Unknown means the argument is not an integer-bearing
			// expression we track (e.g. a Source value) — NewSource on
			// the way in was checked at its own call.
		case provTainted:
			pass.Reportf(arg.Pos(),
				"rand source seed derives from %s; thread a run-config seed instead", p.reason)
		case provOpaque:
			pass.Reportf(arg.Pos(),
				"rand source seed is not provenance-traceable to a run-config seed (name it *seed*, take it from config, or annotate the deriving helper //meccvet:seed)")
		case provParam:
			checkParamCallers(pass, arg, p.param, fi, make(map[*types.Var]bool))
		}
	}
}

// checkParamCallers verifies a parameter carrying seed data at every
// call site of its function, recursing through plain-parameter
// forwarding. A sink whose seed flows from a call site passing a
// tainted or untraceable value is reported at the sink.
func checkParamCallers(pass *Pass, sinkArg ast.Expr, param *types.Var, fi *FuncInfo, visiting map[*types.Var]bool) {
	if fi == nil || visiting[param] {
		return
	}
	visiting[param] = true
	idx := paramIndex(fi.Fn, param)
	if idx < 0 {
		return
	}
	for _, edge := range pass.Prog.CallersOf(fi.Fn) {
		if idx >= len(edge.Call.Args) {
			continue // variadic shapes the index no longer matches
		}
		arg := edge.Call.Args[idx]
		p := pass.Prog.provCtxOf(edge.Caller).eval(arg)
		switch p.kind {
		case provParam:
			checkParamCallers(pass, sinkArg, p.param, edge.Caller, visiting)
		case provTainted:
			pos := edge.Caller.Pkg.Fset.Position(arg.Pos())
			pass.Reportf(sinkArg.Pos(),
				"rand source seed flows from parameter %s, which receives a value derived from %s at %s:%d",
				param.Name(), p.reason, pos.Filename, pos.Line)
		case provOpaque:
			pos := edge.Caller.Pkg.Fset.Position(arg.Pos())
			pass.Reportf(sinkArg.Pos(),
				"rand source seed flows from parameter %s, which receives a non-seed value at %s:%d",
				param.Name(), pos.Filename, pos.Line)
		}
	}
}

// paramIndex returns the position of param in fn's parameter list, or -1.
func paramIndex(fn *types.Func, param *types.Var) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == param {
			return i
		}
	}
	return -1
}

// provCtx evaluates provenance of expressions within one function:
// facts holds the provenance of each SSA value.
type provCtx struct {
	prog  *Program
	info  *types.Info
	fi    *FuncInfo // enclosing function; nil at package-level initializers
	f     *ssaFunc
	facts map[*ssaVal]prov
}

// provCtxOf returns (solving and memoizing) the provenance context of
// one function.
func (prog *Program) provCtxOf(fi *FuncInfo) *provCtx {
	if c := prog.provCtxs[fi.Fn]; c != nil {
		return c
	}
	c := &provCtx{prog: prog, info: fi.Pkg.Info, fi: fi, f: prog.ssaOf(fi.Fn)}
	if c.f != nil {
		c.facts = solveSSA(c.f, prov{}, c.defProv, joinProv)
	}
	prog.provCtxs[fi.Fn] = c
	return c
}

// defProv computes the provenance one SSA definition carries from its
// defining statement. Entry values stay unknown: evalIdent resolves a
// parameter to itself.
func (c *provCtx) defProv(v *ssaVal, get func(*ssaVal) prov) prov {
	switch s := v.defStmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return c.evalWith(s.Rhs[0], get) // multi-value call
		}
		for i, l := range s.Lhs {
			if l != v.def {
				continue
			}
			p := c.evalWith(s.Rhs[i], get)
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				// Compound assignment mixes old and new provenance.
				p = joinProv(p, c.evalWith(l, get))
			}
			return p
		}
	case *ast.DeclStmt:
		if v.rhs != nil {
			return c.evalWith(v.rhs, get)
		}
	case *ast.RangeStmt:
		// Loop indices are deterministic; ranged values inherit the
		// container's provenance.
		if s.Key == v.def {
			return prov{kind: provSeeded}
		}
		return c.evalWith(s.X, get)
	case *ast.IncDecStmt:
		return c.evalWith(s.X, get) // x++ keeps x's provenance
	}
	return prov{}
}

// eval computes the provenance of one expression from the solved facts.
func (c *provCtx) eval(e ast.Expr) prov {
	return c.evalWith(e, func(v *ssaVal) prov { return c.facts[v] })
}

// evalWith computes the provenance of one expression, reading the
// provenance of each identifier's reaching definition through get.
func (c *provCtx) evalWith(e ast.Expr, get func(*ssaVal) prov) prov {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return prov{kind: provSeeded}
	case *ast.Ident:
		return c.evalIdent(e, get)
	case *ast.SelectorExpr:
		if v, ok := c.info.Uses[e.Sel].(*types.Var); ok {
			if seedish(v.Name()) {
				return prov{kind: provSeeded}
			}
			if isPkgLevelVar(v) {
				return prov{kind: provOpaque}
			}
		}
		// A non-seed field of anything: untraceable.
		return prov{kind: provOpaque}
	case *ast.CallExpr:
		return c.evalCall(e, get)
	case *ast.BinaryExpr:
		return joinProv(c.evalWith(e.X, get), c.evalWith(e.Y, get))
	case *ast.UnaryExpr:
		return c.evalWith(e.X, get)
	case *ast.IndexExpr:
		// seeds[i] inherits the container's provenance.
		return c.evalWith(e.X, get)
	case *ast.StarExpr:
		return c.evalWith(e.X, get)
	}
	return prov{kind: provOpaque}
}

func (c *provCtx) evalIdent(id *ast.Ident, get func(*ssaVal) prov) prov {
	obj := c.info.Uses[id]
	if obj == nil {
		obj = c.info.Defs[id]
	}
	switch obj := obj.(type) {
	case *types.Const:
		return prov{kind: provSeeded}
	case *types.Var:
		// The declared name is the sanction: a *seed*-named variable is
		// run-config provenance by convention, whatever produced it.
		if seedish(obj.Name()) {
			return prov{kind: provSeeded}
		}
		if c.f != nil {
			if p := get(c.f.useVal[id]); p.kind != provUnknown {
				return p
			}
		}
		if c.fi != nil && paramIndex(c.fi.Fn, obj) >= 0 {
			return prov{kind: provParam, param: obj}
		}
		return prov{kind: provOpaque}
	}
	return prov{kind: provOpaque}
}

// evalCall classifies call results: known nondeterministic sources
// taint, //meccvet:seed helpers sanctify, internal callees are
// summarized and parameter results substituted with the actual
// arguments, and everything else is opaque.
func (c *provCtx) evalCall(call *ast.CallExpr, get func(*ssaVal) prov) prov {
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.evalWith(call.Args[0], get) // conversion
		}
		return prov{kind: provOpaque}
	}
	obj := funcObject(c.info, call.Fun)
	switch obj := obj.(type) {
	case *types.Builtin:
		// len/cap/min/max over deterministic data are deterministic.
		return prov{kind: provSeeded}
	case *types.Func:
		if t := taintedSource(obj); t != "" {
			return prov{kind: provTainted, reason: t}
		}
		if c.prog.funcVerb(obj, verbSeed) {
			return prov{kind: provSeeded}
		}
		// A method call propagates its receiver's taint
		// (time.Now().UnixNano() stays tainted through the chain).
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				if p := c.evalWith(sel.X, get); p.kind == provTainted {
					return p
				}
			}
		}
		if fi := c.prog.FuncOf(obj); fi != nil {
			p := c.prog.returnProv(fi)
			if p.kind == provParam {
				if idx := paramIndex(fi.Fn, p.param); idx >= 0 && idx < len(call.Args) {
					return c.evalWith(call.Args[idx], get)
				}
				return prov{kind: provOpaque}
			}
			return p
		}
	}
	return prov{kind: provOpaque}
}

// taintedSource names the nondeterminism a stdlib function introduces,
// or returns "".
func taintedSource(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if isPkgLevelFunc(fn, "time") && (name == "Now" || name == "Since" || name == "Until") {
			return "the wall clock (time." + name + ")"
		}
	case "math/rand":
		if isPkgLevelFunc(fn, "math/rand") && !randConstructors[name] {
			return "the process-global math/rand source"
		}
	case "math/rand/v2":
		if isPkgLevelFunc(fn, "math/rand/v2") && !randConstructors[name] {
			return "the OS-entropy-seeded math/rand/v2 source"
		}
	case "crypto/rand":
		return "crypto/rand"
	case "os":
		if name == "Getpid" || name == "Getppid" || name == "Getenv" || name == "Environ" {
			return "process state (os." + name + ")"
		}
	}
	return ""
}

// returnProv summarizes the provenance a function's results carry: the
// join over every return statement's result expressions, evaluated in
// the function's own solved facts. Cycles resolve to opaque.
func (prog *Program) returnProv(fi *FuncInfo) prov {
	if p, ok := prog.provFacts[fi.Fn]; ok {
		return p
	}
	prog.provFacts[fi.Fn] = prov{kind: provOpaque} // cycle default
	if fi.Decl.Body == nil {
		return prov{kind: provOpaque}
	}
	callee := prog.provCtxOf(fi)
	var out prov
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a literal's returns are not fi's
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				out = joinProv(out, callee.eval(res))
			}
		}
		return true
	})
	if out.kind == provUnknown {
		out = prov{kind: provOpaque} // naked or resultless returns
	}
	prog.provFacts[fi.Fn] = out
	return out
}
