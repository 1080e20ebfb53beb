package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Concsafety enforces the batch.Pool.Run work-function contract
// interprocedurally: a work function receives a disjoint [lo,hi) chunk
// and may write only per-index output slots or atomic state. Writes to
// captured or package-level variables that are not indexed by a
// worker-local variable are flagged, in the work function itself and —
// through the call graph — in everything it reaches. It also turns the
// "not concurrently with traffic" doc contract of setup entry points
// into a checked annotation: a //meccvet:quiescent function reachable
// from a pool work function or a go statement is reported, because
// those are exactly the contexts that run concurrently with traffic.
// Finally, shared words must be typed atomics (atomic.Uint64,
// atomic.Pointer[T]): a typed atomic allows no plain access at all,
// while the address-based sync/atomic functions leave the word open to
// a racing plain read or write anywhere else, so every call to them is
// reported.
var Concsafety = &Analyzer{
	Name: "concsafety",
	Doc: "batch.Pool.Run work functions may write only per-index or atomic " +
		"state (checked through the callee closure), " +
		"//meccvet:quiescent functions must not be reachable from work " +
		"functions or goroutines, and atomic words must be typed atomics, " +
		"not plain words passed to sync/atomic functions",
	Run: runConcsafety,
}

// sharedWrite is one non-atomic write to package-level state found in a
// callee reachable from a work function.
type sharedWrite struct {
	obj *types.Var
	pos token.Position
}

func runConcsafety(pass *Pass) error {
	// A work function passed to several Run calls is checked once, so
	// each of its findings is reported once.
	checked := make(map[*ast.BlockStmt]bool)
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolRun(pass, n) && len(n.Args) > 0 {
				if body, span := workerFunc(pass, n.Args[len(n.Args)-1]); body != nil && !checked[body] {
					checked[body] = true
					checkWorkerBody(pass, body, span.Pos(), span.End())
				}
			}
			if obj := funcObject(pass.Info, n.Fun); isPkgLevelFunc(obj, "sync/atomic") {
				pass.Reportf(n.Pos(),
					"atomic.%s leaves its word open to plain access elsewhere; declare the word as a typed atomic (atomic.Uint64, atomic.Pointer[T])",
					obj.Name())
			}
		case *ast.GoStmt:
			checkGoStmt(pass, n)
		}
		return true
	})
	return nil
}

// isPoolRun recognizes the fork-join primitive: the Run method of a
// type named Pool declared in a package with a "batch" path segment,
// taking a work function as final parameter.
func isPoolRun(pass *Pass, call *ast.CallExpr) bool {
	fn, ok := funcObject(pass.Info, call.Fun).(*types.Func)
	if !ok || fn.Name() != "Run" || fn.Pkg() == nil || !pathSegment(fn.Pkg().Path(), "batch") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	return ok && namedType(ptr.Elem(), fn.Pkg().Path(), "Pool")
}

// workerFunc resolves one work-function argument to its body and the
// node whose span holds its parameters and locals: a function literal
// in place, a local variable bound once to a function literal (how a
// caller builds one closure for many Runs), or a reference to a
// declared function. The body is nil for anything else.
func workerFunc(pass *Pass, arg ast.Expr) (*ast.BlockStmt, ast.Node) {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return lit.Body, lit
	}
	switch obj := funcObject(pass.Info, arg).(type) {
	case *types.Var:
		if lit := boundFuncLit(pass, obj); lit != nil {
			return lit.Body, lit
		}
	case *types.Func:
		if fi := pass.Prog.FuncOf(obj); fi != nil && fi.Decl.Body != nil {
			return fi.Decl.Body, fi.Decl
		}
	}
	return nil, nil
}

// boundFuncLit returns the function literal v is bound to when v is
// assigned exactly once in its file and that assignment is the
// literal, or nil.
func boundFuncLit(pass *Pass, v *types.Var) *ast.FuncLit {
	var lit *ast.FuncLit
	assigns := 0
	for _, f := range pass.Files {
		if v.Pos() < f.Pos() || v.Pos() >= f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || (pass.Info.Defs[id] != v && pass.Info.Uses[id] != v) {
					continue
				}
				assigns++
				if len(as.Rhs) == len(as.Lhs) {
					lit, _ = ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
				}
			}
			return true
		})
	}
	if assigns != 1 {
		return nil
	}
	return lit
}

// checkWorkerBody applies the per-index-or-atomic write discipline to a
// work function body spanning [lo, hi) in the file set: direct writes
// are classified here, and every static call edge is checked against
// the shared-write and quiescent-reachability summaries.
func checkWorkerBody(pass *Pass, body *ast.BlockStmt, lo, hi token.Pos) {
	workerLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lo && obj.Pos() < hi
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				checkWorkerWrite(pass, l, workerLocal)
			}
		case *ast.IncDecStmt:
			checkWorkerWrite(pass, n.X, workerLocal)
		}
		return true
	})
	for _, cs := range pass.Prog.collectCalls(pass.Info, body) {
		if q := pass.Prog.reachesQuiescent(cs.Callee.Fn); q != nil {
			pass.Reportf(cs.Call.Pos(),
				"call to %s from a pool work function reaches //meccvet:quiescent %s, which must not run concurrently with traffic",
				cs.Callee.Fn.Name(), q.Name())
			continue
		}
		if sw := pass.Prog.sharedWriteSummary(cs.Callee.Fn); sw != nil {
			pass.Reportf(cs.Call.Pos(),
				"call to %s from a pool work function writes shared %s non-atomically (%s:%d)",
				cs.Callee.Fn.Name(), sw.obj.Name(), sw.pos.Filename, sw.pos.Line)
		}
	}
}

// checkWorkerWrite classifies one assignment target inside a work
// function: worker-local targets and per-index stores into shared
// slices are fine; everything shared and scalar is a race.
func checkWorkerWrite(pass *Pass, lhs ast.Expr, workerLocal func(types.Object) bool) {
	root, indexed, indices := writeRoot(pass.Info, lhs)
	if root == nil || workerLocal(root) {
		return
	}
	if indexed && indexMentionsLocal(pass.Info, indices, workerLocal) {
		return // per-index store into a shared output buffer
	}
	if isPkgLevelVar(root) {
		pass.Reportf(lhs.Pos(),
			"write to package-level %s from a pool work function must be per-index or atomic", root.Name())
		return
	}
	pass.Reportf(lhs.Pos(),
		"write to captured %s from a pool work function is racy; make it per-index or atomic", root.Name())
}

// writeRoot peels an assignment target down to its base variable,
// noting whether the path goes through an index expression (and which
// index expressions).
func writeRoot(info *types.Info, e ast.Expr) (root *types.Var, indexed bool, indices []ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			v, _ := obj.(*types.Var)
			return v, indexed, indices
		case *ast.IndexExpr:
			indexed = true
			indices = append(indices, x.Index)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// A qualified package-level variable (pkg.Var) resolves at
			// the selector; a field path descends to its base.
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPkgLevelVar(v) {
				return v, indexed, indices
			}
			e = x.X
		default:
			return nil, indexed, indices
		}
	}
}

// indexMentionsLocal reports whether any index expression references a
// worker-local variable — the shape of a per-index [lo,hi) store.
func indexMentionsLocal(info *types.Info, indices []ast.Expr, workerLocal func(types.Object) bool) bool {
	for _, idx := range indices {
		found := false
		ast.Inspect(idx, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && workerLocal(info.Uses[id]) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// checkGoStmt flags goroutines that reach //meccvet:quiescent
// functions: a quiescent mutation launched concurrently is exactly the
// race the annotation exists to prevent.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	report := func(pos token.Pos, callee, q *types.Func) {
		if callee == q {
			pass.Reportf(pos, "goroutine calls //meccvet:quiescent %s, which must not run concurrently with traffic", q.Name())
			return
		}
		pass.Reportf(pos, "goroutine call to %s reaches //meccvet:quiescent %s, which must not run concurrently with traffic",
			callee.Name(), q.Name())
	}
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		for _, cs := range pass.Prog.collectCalls(pass.Info, lit.Body) {
			if q := pass.Prog.reachesQuiescent(cs.Callee.Fn); q != nil {
				report(cs.Call.Pos(), cs.Callee.Fn, q)
			}
		}
		return
	}
	if fn, ok := funcObject(pass.Info, g.Call.Fun).(*types.Func); ok {
		if fi := pass.Prog.FuncOf(fn); fi != nil {
			if q := pass.Prog.reachesQuiescent(fi.Fn); q != nil {
				report(g.Call.Pos(), fi.Fn, q)
			}
		}
	}
}

// sharedWriteSummary reports the first non-atomic, non-indexed write to
// a package-level variable in fn's transitive closure, or nil. Indexed
// writes are excluded — a callee storing through an index it was handed
// is the sanctioned per-index pattern — as are writes suppressed with
// //meccvet:allow concsafety. Cycles resolve to clean.
func (prog *Program) sharedWriteSummary(fn *types.Func) *sharedWrite {
	if prog.sharedDone[fn] {
		return prog.sharedFacts[fn]
	}
	prog.sharedDone[fn] = true // in progress: cycles resolve to nil
	fi := prog.funcs[fn]
	if fi == nil || fi.Decl.Body == nil {
		return nil
	}
	var found *sharedWrite
	note := func(e ast.Expr) {
		if found != nil {
			return
		}
		root, indexed, _ := writeRoot(fi.Pkg.Info, e)
		if root == nil || indexed || !isPkgLevelVar(root) {
			return
		}
		pos := fi.Pkg.Fset.Position(e.Pos())
		if prog.allowed("concsafety", pos) {
			return
		}
		found = &sharedWrite{obj: root, pos: pos}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				note(l)
			}
		case *ast.IncDecStmt:
			note(n.X)
		}
		return found == nil
	})
	if found == nil {
		for _, cs := range prog.calls[fn] {
			if found = prog.sharedWriteSummary(cs.Callee.Fn); found != nil {
				break
			}
		}
	}
	prog.sharedFacts[fn] = found
	return found
}

// isPkgLevelVar reports whether v is declared at package scope.
func isPkgLevelVar(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
