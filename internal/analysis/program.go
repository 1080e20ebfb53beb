package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// A FuncInfo binds one declared function or method to its defining
// package, giving interprocedural analyzers access to the callee's body
// and type facts.
type FuncInfo struct {
	// Fn is the function's type-checker object.
	Fn *types.Func
	// Decl is the function's declaration (Body may be nil for
	// assembly-backed declarations).
	Decl *ast.FuncDecl
	// Pkg is the package defining the function.
	Pkg *Package
}

// A Program is the whole-program view over the root packages of one
// analysis run: an index of every declared function and method, the
// call graph between them, program-wide directives, and memoized
// interprocedural summaries. It is what turns the per-package passes
// into a dataflow engine — an analyzer reaches any callee's body
// through Prog regardless of which package the current pass covers.
type Program struct {
	// Pkgs are the error-free root packages of the run.
	Pkgs []*Package

	funcs      map[*types.Func]*FuncInfo
	calls      map[*types.Func][]CallSite
	callers    map[*types.Func][]CallerEdge
	directives []directive

	// Memoized interprocedural summaries (single-threaded access).
	sharedFacts map[*types.Func]*sharedWrite
	sharedDone  map[*types.Func]bool
	quiescent   map[*types.Func]*types.Func
	quietDone   map[*types.Func]bool
	cfgs        map[*types.Func]*cfg
	provCtxs    map[*types.Func]*provCtx
	provFacts   map[*types.Func]prov // return summaries
	ssaFuncs    map[*types.Func]*ssaFunc
}

// A CallSite is one static call from a declared function's body
// (including calls inside its function literals) to a function declared
// in a root package.
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Callee is the resolved root-package target.
	Callee *FuncInfo
}

// A CallerEdge is the reverse of a CallSite: one call expression that
// targets a given function, with the calling context needed to evaluate
// argument expressions.
type CallerEdge struct {
	// Caller is the enclosing declared function.
	Caller *FuncInfo
	// Call is the call expression inside Caller's body.
	Call *ast.CallExpr
}

// buildProgram indexes the error-free root packages into a Program.
func buildProgram(pkgs []*Package) *Program {
	prog := &Program{
		funcs:       make(map[*types.Func]*FuncInfo),
		calls:       make(map[*types.Func][]CallSite),
		callers:     make(map[*types.Func][]CallerEdge),
		sharedFacts: make(map[*types.Func]*sharedWrite),
		sharedDone:  make(map[*types.Func]bool),
		quiescent:   make(map[*types.Func]*types.Func),
		quietDone:   make(map[*types.Func]bool),
		cfgs:        make(map[*types.Func]*cfg),
		provCtxs:    make(map[*types.Func]*provCtx),
		provFacts:   make(map[*types.Func]prov),
		ssaFuncs:    make(map[*types.Func]*ssaFunc),
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 || pkg.Info == nil {
			continue
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.directives = append(prog.directives, scanDirectives(pkg.Fset, pkg.Files)...)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, fi := range prog.funcs {
		if fi.Decl.Body == nil {
			continue
		}
		sites := prog.collectCalls(fi.Pkg.Info, fi.Decl.Body)
		prog.calls[fi.Fn] = sites
		for _, cs := range sites {
			prog.callers[cs.Callee.Fn] = append(prog.callers[cs.Callee.Fn], CallerEdge{Caller: fi, Call: cs.Call})
		}
	}
	return prog
}

// FuncOf returns the FuncInfo for a root-package function, or nil.
func (prog *Program) FuncOf(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return prog.funcs[fn]
}

// CallersOf returns the call edges targeting fn from root packages.
func (prog *Program) CallersOf(fn *types.Func) []CallerEdge { return prog.callers[fn] }

// funcVerb reports whether fn's declaration doc carries the directive.
func (prog *Program) funcVerb(fn *types.Func, verb string) bool {
	fi := prog.funcs[fn]
	return fi != nil && hasDirective(fi.Decl.Doc, verb)
}

// allowed reports whether an //meccvet:allow directive anywhere in the
// program covers the position for the named analyzer: the directive
// may trail the offending line or sit alone on the line directly above
// it. Directives are collected program-wide because interprocedural
// analyzers report at positions in packages other than the current
// pass's (the breaking call edge may live two packages away); the
// filename match keeps the check exact.
func (prog *Program) allowed(analyzer string, pos token.Position) bool {
	for _, d := range prog.directives {
		if d.verb != verbAllow || d.pos.Filename != pos.Filename {
			continue
		}
		if d.pos.Line != pos.Line && d.pos.Line != pos.Line-1 {
			continue
		}
		if len(d.names) == 0 || slices.Contains(d.names, analyzer) {
			return true
		}
	}
	return false
}

// collectCalls walks one body (descending into nested function
// literals) and returns every call whose static target is a
// root-package function. info must be the fact table of the package
// holding the body.
func (prog *Program) collectCalls(info *types.Info, body ast.Node) []CallSite {
	var out []CallSite
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := funcObject(info, call.Fun).(*types.Func); ok && prog.funcs[fn] != nil {
				out = append(out, CallSite{Call: call, Callee: prog.funcs[fn]})
			}
		}
		return true
	})
	return out
}

// cfgOf returns (building and memoizing) the control-flow graph of a
// root-package function, or nil when it has no body.
func (prog *Program) cfgOf(fn *types.Func) *cfg {
	if g, ok := prog.cfgs[fn]; ok {
		return g
	}
	fi := prog.funcs[fn]
	var g *cfg
	if fi != nil && fi.Decl.Body != nil {
		g = buildCFG(fi.Decl.Body)
	}
	prog.cfgs[fn] = g
	return g
}

// ssaOf returns (building and memoizing) the SSA form of a
// root-package function's body, or nil when it has no body.
func (prog *Program) ssaOf(fn *types.Func) *ssaFunc {
	if f, ok := prog.ssaFuncs[fn]; ok {
		return f
	}
	fi := prog.funcs[fn]
	var f *ssaFunc
	if fi != nil && fi.Decl.Body != nil {
		if g := prog.cfgOf(fn); g != nil {
			f = buildSSA(fi, g)
		}
	}
	prog.ssaFuncs[fn] = f
	return f
}

// reachesQuiescent returns a //meccvet:quiescent function reachable
// from fn over static internal call edges (fn itself included), or nil.
// Cycles terminate through the in-progress marker in quietDone.
func (prog *Program) reachesQuiescent(fn *types.Func) *types.Func {
	if prog.funcVerb(fn, verbQuiescent) {
		return fn
	}
	if prog.quietDone[fn] {
		return prog.quiescent[fn]
	}
	prog.quietDone[fn] = true // in progress: cycles resolve to nil
	for _, cs := range prog.calls[fn] {
		if q := prog.reachesQuiescent(cs.Callee.Fn); q != nil {
			prog.quiescent[fn] = q
			return q
		}
	}
	return nil
}
