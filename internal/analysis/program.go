package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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

// Hotpath reports whether the function is annotated //meccvet:hotpath.
func (fi *FuncInfo) Hotpath() bool { return hasDirective(fi.Decl.Doc, verbHotpath) }

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
	allocFacts  map[*types.Func]*allocIssue
	allocDone   map[*types.Func]bool
	sharedFacts map[*types.Func]*sharedWrite
	sharedDone  map[*types.Func]bool
	quiescent   map[*types.Func]*types.Func
	quietDone   map[*types.Func]bool
	cfgs        map[*types.Func]*cfg
	provFacts   map[*types.Func]prov
	provDone    map[*types.Func]bool
	unitFacts   map[*types.Func]unit
	unitDone    map[*types.Func]bool
	ssaFuncs    map[*types.Func]*ssaFunc
	escFacts    map[*types.Func]map[ast.Expr]bool
	chaFacts    map[*types.Func]*chaResult
	roots       map[*types.Package]bool // the Pkgs' types, set with universe
	universe    []types.Type            // named non-interface root types
	atomicIdx   *atomicIndex
	// allowUsed marks (by index into directives) each allow directive
	// that suppressed at least one would-be finding; hotescape flags
	// hotpath/hotclosure allows that stay unmarked after a full replay.
	allowUsed map[int]bool
	auditDone bool
}

// A CallSite is one call expression inside a declared function's body
// (including calls inside its function literals).
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Callee is the resolved target when it is a function declared in a
	// root package; nil otherwise.
	Callee *FuncInfo
	// External is the resolved static target when it is declared outside
	// the root set (stdlib); nil for dynamic calls and internal targets.
	External *types.Func
	// Dynamic marks calls through function values or interface methods —
	// the conservative fallback edges: the target set is unknown.
	Dynamic bool
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
		allocFacts:  make(map[*types.Func]*allocIssue),
		allocDone:   make(map[*types.Func]bool),
		sharedFacts: make(map[*types.Func]*sharedWrite),
		sharedDone:  make(map[*types.Func]bool),
		quiescent:   make(map[*types.Func]*types.Func),
		quietDone:   make(map[*types.Func]bool),
		cfgs:        make(map[*types.Func]*cfg),
		provFacts:   make(map[*types.Func]prov),
		provDone:    make(map[*types.Func]bool),
		unitFacts:   make(map[*types.Func]unit),
		unitDone:    make(map[*types.Func]bool),
		ssaFuncs:    make(map[*types.Func]*ssaFunc),
		escFacts:    make(map[*types.Func]map[ast.Expr]bool),
		chaFacts:    make(map[*types.Func]*chaResult),
		allowUsed:   make(map[int]bool),
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
			if cs.Callee != nil {
				prog.callers[cs.Callee.Fn] = append(prog.callers[cs.Callee.Fn], CallerEdge{Caller: fi, Call: cs.Call})
			}
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

// CallsFrom returns the call sites inside fn's body.
func (prog *Program) CallsFrom(fn *types.Func) []CallSite { return prog.calls[fn] }

// CallersOf returns the call edges targeting fn from root packages.
func (prog *Program) CallersOf(fn *types.Func) []CallerEdge { return prog.callers[fn] }

// funcVerb reports whether fn's declaration doc carries the directive.
func (prog *Program) funcVerb(fn *types.Func, verb string) bool {
	fi := prog.funcs[fn]
	return fi != nil && hasDirective(fi.Decl.Doc, verb)
}

// allowed reports whether an //meccvet:allow directive anywhere in the
// program covers the position for the named analyzer — the program-wide
// counterpart of Pass.allowedAt, needed because interprocedural
// analyzers report at positions in packages other than the current
// pass's (the breaking call edge may live two packages away). A match
// marks the directive as load-bearing for the hotescape audit.
func (prog *Program) allowed(analyzer string, pos token.Position) bool {
	if i := directiveAllowIndex(prog.directives, analyzer, pos); i >= 0 {
		prog.allowUsed[i] = true
		return true
	}
	return false
}

// collectCalls walks one body (descending into nested function
// literals) and resolves every call expression against the root-package
// function index. info must be the fact table of the package holding
// the body.
func (prog *Program) collectCalls(info *types.Info, body ast.Node) []CallSite {
	var out []CallSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		obj := calleeObjectIn(info, call)
		switch obj := obj.(type) {
		case *types.Builtin:
			// Builtins are handled by the local syntactic checks.
		case *types.Func:
			if fi := prog.funcs[obj]; fi != nil {
				out = append(out, CallSite{Call: call, Callee: fi})
			} else if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				out = append(out, CallSite{Call: call, Dynamic: true})
			} else {
				out = append(out, CallSite{Call: call, External: obj})
			}
		case nil:
			out = append(out, CallSite{Call: call, Dynamic: true})
		default:
			// A variable or parameter of function type: dynamic.
			out = append(out, CallSite{Call: call, Dynamic: true})
		}
		return true
	})
	return out
}

// calleeObjectIn is calleeObject generalized over any package's facts.
func calleeObjectIn(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
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

// nonEscaping returns the set of allocation expressions in fn's body
// proven (by the SSA escape analysis) never to leave the frame.
func (prog *Program) nonEscaping(fn *types.Func) map[ast.Expr]bool {
	if m, ok := prog.escFacts[fn]; ok {
		return m
	}
	var m map[ast.Expr]bool
	if f := prog.ssaOf(fn); f != nil {
		m = escapeAnalysis(f, prog.funcs[fn])
	}
	prog.escFacts[fn] = m
	return m
}

// escapeOracle binds nonEscaping into the hotScanner's oracle shape
// for one function: it reports true when the allocation may escape
// (i.e. was not proven local).
func (prog *Program) escapeOracle(fn *types.Func) func(ast.Expr) bool {
	proven := prog.nonEscaping(fn)
	return func(e ast.Expr) bool { return !proven[e] }
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
		if cs.Callee == nil {
			continue
		}
		if q := prog.reachesQuiescent(cs.Callee.Fn); q != nil {
			prog.quiescent[fn] = q
			return q
		}
	}
	return nil
}
