package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// unitScope lists the packages that juggle three clock domains (CPU
// cycles, DRAM cycles, wall-clock time) as plain integers.
var unitScope = []string{"sim", "dram", "memctrl", "core", "retention", "power", "multirate"}

// Unitflow keeps the clock domains apart in the clock-domain packages.
// At the typed boundary, conversions between time.Duration and raw
// numerics are confined to //meccvet:unitconv helpers: a bare
// time.Duration(x) reinterprets x as nanoseconds and a bare int64(d)
// silently drops the unit. Where both domains live as plain integers,
// a variable, field, parameter, or result whose name carries a unit
// token (cycle/cycles/cyc vs ns/nanos/nanoseconds) is tagged, units
// flow through assignments over the SSA form, and mixing the two
// domains in additive arithmetic, comparisons, call arguments,
// assignments, or returns is reported. Multiplication and division are
// exempt — scaling by a rate is exactly how sanctioned conversions are
// written — and //meccvet:unitconv functions are skipped wholesale.
var Unitflow = &Analyzer{
	Name: "unitflow",
	Doc: "in the clock-domain packages (sim, dram, memctrl, core, retention, " +
		"power, multirate), time.Duration conversions must live in " +
		"//meccvet:unitconv helpers, and cycle- and nanosecond-counted " +
		"integers (inferred from *cycle*/*ns* name tokens, propagated over " +
		"SSA) must not mix in additive arithmetic, comparisons, call " +
		"arguments, assignments, or returns",
	Run: runUnitflow,
}

// unit is the clock-domain lattice: unknown < {ns, cycles} < conflict.
type unit uint8

const (
	unitUnknown  unit = iota // no unit information
	unitNs                   // nanoseconds
	unitCycles               // clock cycles
	unitConflict             // joined from both domains
)

func (u unit) String() string {
	switch u {
	case unitNs:
		return "nanosecond"
	case unitCycles:
		return "cycle"
	case unitConflict:
		return "conflicting-unit"
	}
	return "unknown-unit"
}

// joinUnit is the lattice join.
func joinUnit(a, b unit) unit {
	if a == b || b == unitUnknown {
		return a
	}
	if a == unitUnknown {
		return b
	}
	return unitConflict
}

// mixed reports whether two units are distinct known domains.
func mixed(a, b unit) bool {
	return a != unitUnknown && b != unitUnknown && a != b &&
		a != unitConflict && b != unitConflict
}

func runUnitflow(pass *Pass) error {
	if !anySegment(pass.PkgPath, unitScope) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				checkConversions(pass, decl) // package-level initializers
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || fd.Body == nil || hasDirective(fd.Doc, verbUnitconv) {
				continue
			}
			c := &unitCtx{pass: pass, fn: fn, f: pass.Prog.ssaOf(fn)}
			c.facts = solveSSA(c.f, unitUnknown, c.defUnit, joinUnit)
			c.check(fd)
		}
	}
	return nil
}

// unitCtx evaluates and checks units within one function: facts holds
// the unit of each SSA value.
type unitCtx struct {
	pass  *Pass
	fn    *types.Func
	f     *ssaFunc
	facts map[*ssaVal]unit
}

// defUnit computes the unit one SSA definition carries from its
// defining statement. A variable whose own name carries a unit keeps
// it; anonymous-named variables inherit the unit of what they were
// assigned. Parameters and phis need no rule here: a parameter's unit
// comes from its name, and solveSSA joins phi operands itself.
func (c *unitCtx) defUnit(v *ssaVal, get func(*ssaVal) unit) unit {
	if !isIntegerVar(v.v) {
		return unitUnknown
	}
	if named := unitFromName(v.v.Name()); named != unitUnknown {
		return named // the declared name is authoritative
	}
	switch s := v.defStmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return unitUnknown // multi-value call: no unit claims
		}
		for i, l := range s.Lhs {
			if l == v.def {
				return c.eval(s.Rhs[i], get)
			}
		}
	case *ast.DeclStmt:
		if v.rhs != nil {
			return c.eval(v.rhs, get)
		}
	case *ast.RangeStmt:
		if s.Value == v.def {
			return c.eval(s.X, get)
		}
	case *ast.IncDecStmt:
		return c.eval(s.X, get) // x++ keeps the unit x had
	}
	return unitUnknown
}

// get reads a solved fact.
func (c *unitCtx) get(v *ssaVal) unit { return c.facts[v] }

// check walks one declaration once, reporting unit-changing
// conversions anywhere in it and unit mixing in the function's own
// body. A function literal is checked for conversions only: its body
// is not part of the enclosing function's SSA form.
func (c *unitCtx) check(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkConversions(c.pass, n.Body)
			return false
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.ReturnStmt:
			c.checkReturn(n)
		case *ast.BinaryExpr:
			c.checkBinary(n)
		case *ast.CallExpr:
			checkConversion(c.pass, n)
			c.checkCallArgs(n)
		}
		return true
	})
}

// checkConversions reports every unit-changing conversion under n.
func checkConversions(pass *Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkConversion(pass, call)
		}
		return true
	})
}

// checkConversion reports a conversion that crosses the time.Duration
// boundary: a raw number reinterpreted as nanoseconds, or a Duration
// reduced to a unit-less number.
func checkConversion(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	target := tv.Type
	argTV, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	switch {
	case isDuration(target) && !isDuration(argTV.Type) && argTV.Value == nil:
		pass.Reportf(call.Pos(),
			"time.Duration(%s) reinterprets a raw %s as nanoseconds; do this only in a //meccvet:unitconv helper",
			types.ExprString(call.Args[0]), argTV.Type)
	case isDuration(argTV.Type) && !isDuration(target) && isRawNumeric(target):
		pass.Reportf(call.Pos(),
			"%s(%s) drops the time unit; do this only in a //meccvet:unitconv helper",
			target, types.ExprString(call.Args[0]))
	}
}

// isDuration reports whether t is time.Duration.
func isDuration(t types.Type) bool { return namedType(t, "time", "Duration") }

// isRawNumeric reports whether t is a plain (unnamed) numeric basic
// type — the unit-less destinations the analyzer polices.
func isRawNumeric(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// checkAssign reports a value stored into a target of the other
// domain.
func (c *unitCtx) checkAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, l := range s.Lhs {
		lu := targetUnit(c.pass.Info, l)
		ru := c.eval(s.Rhs[i], c.get)
		if mixed(lu, ru) {
			c.pass.Reportf(s.Rhs[i].Pos(),
				"assigning a %s count to %s-denominated %s; convert in a //meccvet:unitconv helper first",
				ru, lu, types.ExprString(l))
		}
	}
}

// additiveOps are the operators where both operands must share a unit.
var additiveOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.REM: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

func (c *unitCtx) checkBinary(e *ast.BinaryExpr) {
	if !additiveOps[e.Op] {
		return // mul/div scale between domains: the sanctioned conversion
	}
	xu := c.eval(e.X, c.get)
	yu := c.eval(e.Y, c.get)
	if mixed(xu, yu) {
		c.pass.Reportf(e.OpPos,
			"%s mixes a %s count (%s) with a %s count (%s); convert in a //meccvet:unitconv helper first",
			e.Op, xu, types.ExprString(e.X), yu, types.ExprString(e.Y))
	}
}

// checkCallArgs compares each argument's unit against the unit the
// callee's parameter name declares — the interprocedural half of the
// analysis, resolved through the call graph.
func (c *unitCtx) checkCallArgs(call *ast.CallExpr) {
	fn, ok := calleeObjectIn(c.pass.Info, call).(*types.Func)
	if !ok {
		return
	}
	fi := c.pass.Prog.FuncOf(fn)
	if fi == nil || hasDirective(fi.Decl.Doc, verbUnitconv) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		p := sig.Params().At(i)
		if !isIntegerVar(p) {
			continue
		}
		pu := unitFromName(p.Name())
		au := c.eval(call.Args[i], c.get)
		if mixed(pu, au) {
			c.pass.Reportf(call.Args[i].Pos(),
				"argument %s carries a %s count but parameter %s of %s is %s-denominated",
				types.ExprString(call.Args[i]), au, p.Name(), fn.Name(), pu)
		}
	}
}

// checkReturn compares returned expressions against the unit declared
// by the function's result names (or, for anonymous results, by the
// function's own name).
func (c *unitCtx) checkReturn(ret *ast.ReturnStmt) {
	sig, ok := c.fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, res := range ret.Results {
		if i >= sig.Results().Len() {
			break
		}
		r := sig.Results().At(i)
		if !isIntegerVar(r) {
			continue
		}
		declared := unitFromName(r.Name())
		if declared == unitUnknown && sig.Results().Len() == 1 {
			declared = unitFromName(c.fn.Name())
		}
		got := c.eval(res, c.get)
		if mixed(declared, got) {
			c.pass.Reportf(res.Pos(),
				"returning a %s count from %s, which declares a %s result; convert in a //meccvet:unitconv helper first",
				got, c.fn.Name(), declared)
		}
	}
}

// targetUnit is the declared unit of an assignment target: only a
// name can declare one.
func targetUnit(info *types.Info, lhs ast.Expr) unit {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Defs[lhs]
		if obj == nil {
			obj = info.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok && isIntegerVar(v) {
			if u := unitFromName(v.Name()); u != unitUnknown {
				return u
			}
		}
		return unitUnknown
	case *ast.SelectorExpr:
		if v, ok := info.Uses[lhs.Sel].(*types.Var); ok && isIntegerVar(v) {
			return unitFromName(v.Name())
		}
	case *ast.IndexExpr:
		return targetUnit(info, lhs.X)
	case *ast.StarExpr:
		return targetUnit(info, lhs.X)
	}
	return unitUnknown
}

// eval computes the unit an expression carries, reading the unit of
// each identifier's reaching definition through get.
func (c *unitCtx) eval(e ast.Expr, get func(*ssaVal) unit) unit {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.Info.Uses[e]
		if obj == nil {
			obj = c.pass.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || !isIntegerVar(v) {
			return unitUnknown
		}
		if named := unitFromName(v.Name()); named != unitUnknown {
			return named
		}
		return get(c.f.useVal[e])
	case *ast.SelectorExpr:
		if v, ok := c.pass.Info.Uses[e.Sel].(*types.Var); ok && isIntegerVar(v) {
			return unitFromName(v.Name())
		}
		return unitUnknown
	case *ast.CallExpr:
		return c.callUnit(e, get)
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB || e.Op == token.REM {
			return joinUnit(c.eval(e.X, get), c.eval(e.Y, get))
		}
		return unitUnknown // mul/div/shift change the denomination
	case *ast.UnaryExpr:
		return c.eval(e.X, get)
	case *ast.IndexExpr:
		return c.eval(e.X, get)
	case *ast.StarExpr:
		return c.eval(e.X, get)
	}
	return unitUnknown
}

// callUnit is the unit a call's (single) result carries: the callee's
// result summary for internal functions, unknown otherwise.
func (c *unitCtx) callUnit(call *ast.CallExpr, get func(*ssaVal) unit) unit {
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			// A conversion preserves the count's denomination.
			return c.eval(call.Args[0], get)
		}
		return unitUnknown
	}
	fn, ok := calleeObjectIn(c.pass.Info, call).(*types.Func)
	if !ok {
		return unitUnknown
	}
	if fi := c.pass.Prog.FuncOf(fn); fi != nil {
		return resultUnit(fi)
	}
	return unitUnknown
}

// resultUnit is the unit a function's single integer result carries,
// from its result name or, failing that, the function name.
// //meccvet:unitconv converters are deliberately unknown: their whole
// point is changing denomination.
func resultUnit(fi *FuncInfo) unit {
	sig, ok := fi.Fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || hasDirective(fi.Decl.Doc, verbUnitconv) {
		return unitUnknown
	}
	r := sig.Results().At(0)
	if !isIntegerVar(r) {
		return unitUnknown
	}
	if u := unitFromName(r.Name()); u != unitUnknown {
		return u
	}
	return unitFromName(fi.Fn.Name())
}

// isIntegerVar reports whether v has a plain integer type — the
// carriers of unit-less counts. time.Duration and other named types are
// excluded: they carry their unit in the type system, which the
// conversion check polices.
func isIntegerVar(v *types.Var) bool {
	if v == nil {
		return false
	}
	b, ok := types.Unalias(v.Type()).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// cycleTokens / nsTokens are the name tokens declaring each domain.
var cycleTokens = map[string]bool{"cycle": true, "cycles": true, "cyc": true}
var nsTokens = map[string]bool{"ns": true, "nanos": true, "nanosecond": true, "nanoseconds": true}

// unitFromName infers a unit from an identifier's name tokens. A name
// carrying tokens from both domains is ambiguous and stays unknown.
func unitFromName(name string) unit {
	hasCyc, hasNs := false, false
	for _, tok := range nameTokens(name) {
		if cycleTokens[tok] {
			hasCyc = true
		}
		if nsTokens[tok] {
			hasNs = true
		}
	}
	switch {
	case hasCyc && !hasNs:
		return unitCycles
	case hasNs && !hasCyc:
		return unitNs
	}
	return unitUnknown
}

// nameTokens splits an identifier into lowercase tokens at camelCase
// boundaries, underscores, and digits.
func nameTokens(name string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range name {
		switch {
		case unicode.IsUpper(r):
			flush()
			cur.WriteRune(unicode.ToLower(r))
		case unicode.IsLetter(r):
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}
