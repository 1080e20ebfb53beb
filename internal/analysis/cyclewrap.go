package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// Cyclewrap flags unsigned subtractions that can wrap around. The
// simulator's scheduling core is 64-bit cycle arithmetic — memctrl's
// jump edges and latency deltas, dram.Earliest* horizon comparisons —
// where `a - b` on uint64 silently produces a number near 2^64 when
// b > a, turning "how far in the future" into "practically forever"
// and stalling or exploding a fast-forward.
//
// A subtraction is accepted when the analysis proves a >= b:
//   - a dominating branch guard establishes it (if b <= a { ... },
//     if a < b { return } fall-through, loop headers, with constant
//     addends folded: a > b+1 proves a >= b);
//   - constant propagation over the SSA graph (the value lattice run
//     through solveSSA) pins both sides to constants;
//   - both sides reduce to the same term with a non-negative offset.
//
// Everything else is a finding. The check runs only in the cycle-math
// packages (memctrl, dram) so string/buffer arithmetic elsewhere stays
// out of scope.
var Cyclewrap = &Analyzer{
	Name: "cyclewrap",
	Doc: "unsigned cycle arithmetic in memctrl/dram must guard " +
		"a - b with a dominating proof that a >= b; an unguarded " +
		"subtraction can wrap and corrupt the event horizon",
	Run: runCyclewrap,
}

// cyclewrapSegments are the package path segments in scope.
var cyclewrapSegments = []string{"memctrl", "dram", "cwrap"}

func runCyclewrap(pass *Pass) error {
	if pass.Prog == nil || !anySegment(pass.PkgPath, cyclewrapSegments) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			f := pass.Prog.ssaOf(fn)
			if f == nil {
				continue
			}
			cw := &wrapChecker{
				pass:   pass,
				f:      f,
				consts: solveConsts(f, pass.Info),
				guards: collectGuards(f, pass.Info),
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false // closures have their own SSA context
				}
				be, isBin := n.(*ast.BinaryExpr)
				if !isBin || be.Op != token.SUB {
					return true
				}
				t := pass.Info.TypeOf(be)
				b, isBasic := t.Underlying().(*types.Basic)
				if !isBasic || b.Info()&types.IsUnsigned == 0 {
					return true
				}
				if tv, ok := pass.Info.Types[be]; ok && tv.Value != nil {
					return true // compile-time constant: the checker already vetted it
				}
				if !cw.safe(be) {
					pass.Reportf(be.Pos(),
						"unsigned subtraction %s may wrap: no dominating guard or constant range proves %s >= %s",
						types.ExprString(be), types.ExprString(be.X), types.ExprString(be.Y))
				}
				return true
			})
		}
	}
	return nil
}

// cpVal is the constant-propagation lattice value: bottom (not yet
// known), a single uint64 constant, or top (varies).
type cpVal struct {
	state int8 // 0 bottom, 1 const, 2 top
	con   uint64
}

var cpTop = cpVal{state: 2}

// solveConsts runs constant propagation over the SSA graph — the value
// lattice plugged into the generic solveSSA worklist.
func solveConsts(f *ssaFunc, info *types.Info) map[*ssaVal]cpVal {
	eval := func(v *ssaVal, get func(*ssaVal) cpVal) cpVal {
		if v.entry || v.rhs == nil {
			return cpTop
		}
		return cpEval(f, info, v.rhs, get)
	}
	join := func(a, b cpVal) cpVal {
		switch {
		case a.state == 0:
			return b
		case b.state == 0:
			return a
		case a == b:
			return a
		default:
			return cpTop
		}
	}
	return solveSSA(f, cpVal{}, eval, join)
}

// cpEval evaluates one defining expression over the constant lattice.
func cpEval(f *ssaFunc, info *types.Info, e ast.Expr, get func(*ssaVal) cpVal) cpVal {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if c, exact := constant.Uint64Val(constant.ToInt(tv.Value)); exact {
			return cpVal{state: 1, con: c}
		}
		return cpTop
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v := f.useVal[e]; v != nil {
			return get(v)
		}
	case *ast.BinaryExpr:
		x := cpEval(f, info, e.X, get)
		y := cpEval(f, info, e.Y, get)
		if x.state != 1 || y.state != 1 {
			if x.state == 0 || y.state == 0 {
				return cpVal{} // wait for operands
			}
			return cpTop
		}
		switch e.Op {
		case token.ADD:
			if s := x.con + y.con; s >= x.con {
				return cpVal{state: 1, con: s}
			}
		case token.SUB:
			if x.con >= y.con {
				return cpVal{state: 1, con: x.con - y.con}
			}
		}
		return cpTop
	case *ast.CallExpr:
		// Conversions between integer types preserve small constants.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if _, isBasic := tv.Type.Underlying().(*types.Basic); isBasic {
				inner := cpEval(f, info, e.Args[0], get)
				if inner.state == 1 && inner.con <= 1<<31 {
					return inner
				}
			}
		}
	}
	return cpTop
}

// term is one side of a comparison or subtraction, canonicalized: an
// SSA value (version-exact), a constant, or a stable expression chain
// (selector/index paths, len calls) matched by spelling.
type term struct {
	kind int8 // 0 invalid, 1 ssa value, 2 canonical expr, 3 constant
	val  *ssaVal
	expr string
	con  uint64
}

func (t term) valid() bool { return t.kind != 0 }

// sameTerm reports whether two terms denote the same value: identical
// SSA versions, equal constants, or equal canonical spellings.
func sameTerm(a, b term) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case 1:
		return a.val == b.val
	case 2:
		return a.expr == b.expr
	case 3:
		return a.con == b.con
	}
	return false
}

// splitAddend decomposes e into core + k for a small constant k
// (core - k yields negative k), resolving core to a term.
func splitAddend(f *ssaFunc, info *types.Info, e ast.Expr) (term, int64) {
	e = ast.Unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && (be.Op == token.ADD || be.Op == token.SUB) {
		if k, ok := smallConst(info, be.Y); ok {
			t, k0 := splitAddend(f, info, be.X)
			if be.Op == token.SUB {
				k = -k
			}
			return t, k0 + k
		}
		if be.Op == token.ADD {
			if k, ok := smallConst(info, be.X); ok {
				t, k0 := splitAddend(f, info, be.Y)
				return t, k0 + k
			}
		}
	}
	return termOf(f, info, e), 0
}

// smallConst extracts a compile-time integer constant with |c| small
// enough for safe addend arithmetic.
func smallConst(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	c, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact || c > 1<<31 || c < -(1<<31) {
		return 0, false
	}
	return c, true
}

// termOf canonicalizes an expression into a term.
func termOf(f *ssaFunc, info *types.Info, e ast.Expr) term {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if c, exact := constant.Uint64Val(constant.ToInt(tv.Value)); exact {
			return term{kind: 3, con: c}
		}
		return term{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v := f.useVal[e]; v != nil {
			return term{kind: 1, val: v}
		}
		return term{kind: 2, expr: types.ExprString(e)}
	case *ast.SelectorExpr, *ast.IndexExpr:
		return term{kind: 2, expr: types.ExprString(e)}
	case *ast.CallExpr:
		// len(x) is pure and monotone in x; other calls are opaque.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "len" {
				return term{kind: 2, expr: types.ExprString(e)}
			}
		}
		// A type conversion is pure: T(x) canonicalizes with x. A
		// versioned local is keyed by its SSA id so a redefinition
		// between guard and use breaks the match; stable chains keep
		// their spelling.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			if _, isBasic := tv.Type.Underlying().(*types.Basic); isBasic {
				switch inner := termOf(f, info, ast.Unparen(e.Args[0])); inner.kind {
				case 1:
					return term{kind: 2, expr: types.ExprString(e.Fun) + "#" + strconv.Itoa(inner.val.id)}
				case 2:
					return term{kind: 2, expr: types.ExprString(e)}
				}
			}
		}
	}
	return term{}
}

// guardFact is one branch-derived relation: a rel b + k.
type guardFact struct {
	a   term
	rel token.Token // GEQ, GTR, LEQ, LSS, EQL, NEQ
	b   term
	k   int64
}

// guardSite binds the facts of one branch condition to the blocks they
// hold in.
type guardSite struct {
	condB         int
	trueB, falseB int
	whenTrue      []guardFact
	whenFalse     []guardFact
}

// collectGuards extracts comparison facts from every branch condition.
func collectGuards(f *ssaFunc, info *types.Info) []guardSite {
	var out []guardSite
	for bi := range f.g.blocks {
		ci := f.g.condAt(bi)
		if ci == nil {
			continue
		}
		gs := guardSite{condB: bi, trueB: ci.trueB, falseB: ci.falseB}
		condFacts(f, info, ci.cond, true, &gs.whenTrue)
		condFacts(f, info, ci.cond, false, &gs.whenFalse)
		if len(gs.whenTrue) > 0 || len(gs.whenFalse) > 0 {
			out = append(out, gs)
		}
	}
	return out
}

// condFacts accumulates the relations known when cond evaluates to
// the given truth value.
func condFacts(f *ssaFunc, info *types.Info, cond ast.Expr, truth bool, out *[]guardFact) {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			condFacts(f, info, e.X, !truth, out)
		}
		return
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if truth { // both conjuncts hold
				condFacts(f, info, e.X, true, out)
				condFacts(f, info, e.Y, true, out)
			}
			return
		case token.LOR:
			if !truth { // both disjuncts fail
				condFacts(f, info, e.X, false, out)
				condFacts(f, info, e.Y, false, out)
			}
			return
		case token.GEQ, token.GTR, token.LEQ, token.LSS, token.EQL, token.NEQ:
			rel := e.Op
			if !truth {
				rel = negateRel(rel)
			}
			ta, ka := splitAddend(f, info, e.X)
			tb, kb := splitAddend(f, info, e.Y)
			if !ta.valid() || !tb.valid() {
				return
			}
			// Normalize to a rel b + (kb - ka).
			*out = append(*out, guardFact{a: ta, rel: rel, b: tb, k: kb - ka})
		}
	}
}

// negateRel inverts a comparison operator.
func negateRel(op token.Token) token.Token {
	switch op {
	case token.GEQ:
		return token.LSS
	case token.GTR:
		return token.LEQ
	case token.LEQ:
		return token.GTR
	case token.LSS:
		return token.GEQ
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}

// wrapChecker holds the per-function machinery for vetting one
// subtraction.
type wrapChecker struct {
	pass   *Pass
	f      *ssaFunc
	consts map[*ssaVal]cpVal
	guards []guardSite
}

// safe reports whether a >= b is proven for the subtraction a - b.
func (cw *wrapChecker) safe(be *ast.BinaryExpr) bool {
	info := cw.pass.Info
	ta, ka := splitAddend(cw.f, info, be.X)
	tb, kb := splitAddend(cw.f, info, be.Y)
	if !ta.valid() || !tb.valid() {
		return false
	}
	// Same term: a+ka - (a+kb) wraps only when ka < kb.
	if sameTerm(ta, tb) {
		return ka >= kb
	}
	// Constant ranges (literal or propagated).
	if ca, ok := cw.constOf(ta); ok {
		if cb, ok := cw.constOf(tb); ok {
			if ca < 1<<62 && cb < 1<<62 {
				return int64(ca)+ka >= int64(cb)+kb
			}
		}
	}
	// b == 0 is always safe whatever a is.
	if cb, ok := cw.constOf(tb); ok && cb == 0 && kb == 0 {
		return true
	}
	need := kb - ka
	// Short-circuit context: when the subtraction sits in the right
	// operand of a && (or ||), evaluation order pins the left operand
	// true (false) by the time the subtraction runs — the idiom
	// `a >= b && a-b >= k` needs no branch.
	var ctxFacts []guardFact
	for n := ast.Node(be); n != nil; n = cw.f.parent[n] {
		if p, ok := cw.f.parent[n].(*ast.BinaryExpr); ok && p.Y == n {
			switch p.Op {
			case token.LAND:
				condFacts(cw.f, info, p.X, true, &ctxFacts)
			case token.LOR:
				condFacts(cw.f, info, p.X, false, &ctxFacts)
			}
		}
	}
	for _, fct := range ctxFacts {
		if factProves(fct, ta, tb, need) {
			return true
		}
	}
	// Dominating guard: need a lower bound L on (a_core - b_core) with
	// L >= kb - ka.
	bs, ok := blockOfNode(cw.f, be)
	if !ok {
		return false
	}
	for _, gs := range cw.guards {
		for _, fct := range gs.whenTrue {
			if cw.holdsAt(gs.condB, gs.trueB, bs) && factProves(fct, ta, tb, need) {
				return true
			}
		}
		for _, fct := range gs.whenFalse {
			if cw.holdsAt(gs.condB, gs.falseB, bs) && factProves(fct, ta, tb, need) {
				return true
			}
		}
	}
	return false
}

// constOf resolves a term to a constant via its kind or the lattice.
func (cw *wrapChecker) constOf(t term) (uint64, bool) {
	switch t.kind {
	case 3:
		return t.con, true
	case 1:
		if cv := cw.consts[t.val]; cv.state == 1 {
			return cv.con, true
		}
	}
	return 0, false
}

// holdsAt reports whether a branch outcome is pinned on every path to
// block bs. Block dominance of the branch target is not enough — a
// join block after an if is reached from both arms — so the target
// must additionally have the condition block as its only predecessor,
// making "execution is in branchB" equivalent to "the edge was taken".
func (cw *wrapChecker) holdsAt(condB, branchB, bs int) bool {
	if branchB == condB {
		return false
	}
	preds := cw.f.g.predecessors()
	if len(preds[branchB]) != 1 || preds[branchB][0] != condB {
		return false
	}
	return cw.f.dom.dominates(branchB, bs)
}

// factProves checks whether one guard fact gives (a - b) >= need.
// The fact is `fct.a fct.rel fct.b + fct.k`.
func factProves(fct guardFact, ta, tb term, need int64) bool {
	var low int64 // lower bound on ta - tb, valid only when matched
	switch {
	case sameTerm(fct.a, ta) && sameTerm(fct.b, tb):
		switch fct.rel {
		case token.GEQ:
			low = fct.k
		case token.GTR:
			low = fct.k + 1
		case token.EQL:
			low = fct.k
		default:
			return false
		}
	case sameTerm(fct.a, tb) && sameTerm(fct.b, ta):
		// tb rel ta + k bounds the difference from the other side.
		switch fct.rel {
		case token.LEQ:
			low = -fct.k
		case token.LSS:
			low = -fct.k + 1
		case token.EQL:
			low = -fct.k
		default:
			return false
		}
	default:
		// Constant composition: a fact bounding ta against one constant
		// proves a subtraction of another constant when the bounds
		// chain (n > 0 proves n - 1; n >= 8 proves n - 3).
		if tb.kind == 3 && tb.con < 1<<62 && fct.b.kind == 3 && fct.b.con < 1<<62 && sameTerm(fct.a, ta) {
			base := fct.k + int64(fct.b.con)
			switch fct.rel {
			case token.GEQ, token.EQL:
				low = base - int64(tb.con)
			case token.GTR:
				low = base + 1 - int64(tb.con)
			default:
				return false
			}
			return low >= need
		}
		return false
	}
	return low >= need
}

// blockOfNode locates the basic block executing a node: the enclosing
// recorded statement's block, or the block owning the branch condition
// or dispatch expression containing it.
func blockOfNode(f *ssaFunc, n ast.Node) (int, bool) {
	if b, ok := enclosingSite(f, n); ok {
		return b, true
	}
	for bi := range f.g.blocks {
		if ci := f.g.condAt(bi); ci != nil && within(ci.cond, n) {
			return bi, true
		}
		for _, e := range f.g.extraUses[bi] {
			if within(e, n) {
				return bi, true
			}
		}
	}
	return 0, false
}

// within reports whether node n lies inside the subtree rooted at e.
func within(e ast.Expr, n ast.Node) bool {
	return e.Pos() <= n.Pos() && n.End() <= e.End()
}
