package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath enforces the allocation-free contract on functions annotated
// //meccvet:hotpath (the BCH codec kernels, the batch sweep APIs) and
// on their whole callee closure. A root may not contain defer, a
// goroutine launch, closures, fmt/log/errors calls, make/new/&T{}
// construction, fresh-slice append, string<->[]byte conversion, or
// implicit interface boxing in call arguments. From each root the
// analyzer follows static call edges into unannotated root-package
// callees, vets each body with the same rules, and flags the call edge
// whose target (transitively) breaks allocation-freedom, naming the
// leaf construct. Callees annotated //meccvet:hotpath are trusted:
// they are proven at their own root, keeping the analysis
// compositional. Dynamic edges (function values, interface methods)
// are flagged unless class-hierarchy analysis proves every target
// clean. Allocations the SSA escape analysis proves frame-local are
// not findings, and a //meccvet:allow hotpath directive that no longer
// suppresses anything is reported as stale. The run-time ZeroAllocs
// guard tests measure the same contract on concrete inputs; this
// analyzer pins it for every path through the source.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "functions marked //meccvet:hotpath and their transitive callee " +
		"closure may not contain allocation-inducing constructs (defer, go, " +
		"closures, fmt, make/new, fresh-slice append, interface boxing) or " +
		"unprovable dynamic calls; stale hotpath allows must be deleted",
	Run: runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, d := range pass.Prog.hotAudit()[pass.Pkg] {
		d.Analyzer = pass.Analyzer.Name
		pass.report(d)
	}
	return nil
}

// hotAudit runs the hot-path rules once over every //meccvet:hotpath
// root of the program, in load order, and returns the surviving
// findings by package. Every allow directive that suppresses a finding
// on the way — at a root, on a call edge, or inside a callee's closure
// — is marked used; an allow naming only hotpath that stays unmarked
// is stale. Stale findings bypass the allow filter: the directive
// would otherwise cover its own line.
func (prog *Program) hotAudit() map[*types.Package][]Diagnostic {
	if prog.hotDiags != nil {
		return prog.hotDiags
	}
	prog.hotDiags = make(map[*types.Package][]Diagnostic)
	pkgOfFile := make(map[string]*types.Package)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			pkgOfFile[pkg.Fset.Position(file.Pos()).Filename] = pkg.Types
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasDirective(fd.Doc, verbHotpath) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				report := func(pos token.Pos, format string, args ...any) {
					position := pkg.Fset.Position(pos)
					if !prog.allowed("hotpath", position) {
						prog.hotDiags[pkg.Types] = append(prog.hotDiags[pkg.Types],
							Diagnostic{Pos: position, Message: fmt.Sprintf(format, args...)})
					}
				}
				hs := &hotScanner{info: pkg.Info, name: fd.Name.Name, escapes: prog.escapeOracle(fn), report: report}
				hs.scan(fd.Body)
				prog.checkHotEdges(fn, fd.Name.Name, report)
			}
		}
	}
	for i, d := range prog.directives {
		if d.verb != verbAllow || prog.allowUsed[i] || !onlyHotpath(d.names) {
			continue
		}
		pkg := pkgOfFile[d.pos.Filename]
		prog.hotDiags[pkg] = append(prog.hotDiags[pkg], Diagnostic{
			Pos: d.pos,
			Message: "stale //meccvet:allow " + strings.Join(d.names, ",") +
				": the suppressed finding is now proven clean (non-escaping or devirtualized); delete the directive",
		})
	}
	return prog.hotDiags
}

// onlyHotpath reports whether an allow directive names hotpath and no
// other analyzer.
func onlyHotpath(names []string) bool {
	for _, n := range names {
		if n != "hotpath" {
			return false
		}
	}
	return len(names) > 0
}

// checkHotEdges vets every call edge leaving a hot root (including
// edges inside its function literals, which run on the hot path).
func (prog *Program) checkHotEdges(root *types.Func, rootName string, report func(pos token.Pos, format string, args ...any)) {
	for _, cs := range prog.calls[root] {
		switch {
		case cs.Dynamic:
			if !prog.devirtualizedClean(root, cs) {
				report(cs.Call.Pos(),
					"dynamic call in hot path %s cannot be proven allocation-free; devirtualize or justify with //meccvet:allow hotpath", rootName)
			}
		case cs.Callee != nil && !cs.Callee.Hotpath():
			if issue := prog.allocSummary(cs.Callee.Fn); issue != nil {
				report(cs.Call.Pos(),
					"call to %s from hot path %s is not allocation-free: %s (%s:%d)",
					cs.Callee.Fn.Name(), rootName, issue.desc, issue.pos.Filename, issue.pos.Line)
			}
		}
	}
}

// allocIssue is one allocation-freedom violation found while vetting a
// callee body: the leaf construct that allocates, at its position.
type allocIssue struct {
	pos  token.Position
	desc string
}

// allocSummary reports the first allocation-freedom violation in fn's
// transitive closure (fn's own body, then its unannotated internal
// callees), or nil when the closure is provably allocation-free.
// Findings suppressed with //meccvet:allow hotpath at the construct do
// not poison the closure. Recursion cycles resolve to clean through
// the in-progress marker.
func (prog *Program) allocSummary(fn *types.Func) *allocIssue {
	if issue, ok := prog.allocFacts[fn]; ok {
		return issue
	}
	prog.allocFacts[fn] = nil // in progress: cycles resolve to clean
	fi := prog.funcs[fn]
	if fi == nil || fi.Decl.Body == nil {
		return nil
	}
	var issue *allocIssue
	note := func(pos token.Pos, desc string) {
		position := fi.Pkg.Fset.Position(pos)
		if issue == nil && !prog.allowed("hotpath", position) {
			issue = &allocIssue{pos: position, desc: desc}
		}
	}
	hs := &hotScanner{
		info:    fi.Pkg.Info,
		name:    fn.Name(),
		escapes: prog.escapeOracle(fn),
		report: func(pos token.Pos, format string, args ...any) {
			note(pos, fmt.Sprintf(format, args...))
		},
	}
	hs.scan(fi.Decl.Body)
	for _, cs := range prog.calls[fn] {
		if issue != nil {
			break
		}
		switch {
		case cs.Dynamic:
			if !prog.devirtualizedClean(fn, cs) {
				note(cs.Call.Pos(), fmt.Sprintf("dynamic call in %s cannot be proven allocation-free", fn.Name()))
			}
		case cs.Callee != nil && !cs.Callee.Hotpath():
			issue = prog.allocSummary(cs.Callee.Fn)
		}
	}
	prog.allocFacts[fn] = issue
	return issue
}

// allocPkgs are packages whose calls imply formatting or allocation.
var allocPkgs = map[string]string{
	"fmt":    "formats and allocates",
	"log":    "formats and locks",
	"errors": "allocates an error value",
}

// hotScanner applies the hot-path allocation rules to one function
// body, reporting each violation through the report callback: a
// finding at a root, or the first leaf of an unannotated callee's
// closure summary.
type hotScanner struct {
	info   *types.Info
	name   string
	report func(pos token.Pos, format string, args ...any)
	// escapes is the escape oracle for the scanned body: it reports
	// whether an allocation expression may outlive its frame. nil (no
	// SSA available) means every allocation is assumed to escape —
	// the pre-SSA behavior.
	escapes func(ast.Expr) bool
}

// mayEscape consults the escape oracle, defaulting to "escapes".
func (hs *hotScanner) mayEscape(e ast.Expr) bool {
	return hs.escapes == nil || hs.escapes(e)
}

func (hs *hotScanner) scan(body ast.Node) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			hs.report(n.Pos(), "defer in hot path %s delays cleanup and costs a frame record", hs.name)
		case *ast.GoStmt:
			hs.report(n.Pos(), "goroutine launch in hot path %s allocates a stack", hs.name)
		case *ast.FuncLit:
			if hs.mayEscape(n) {
				hs.report(n.Pos(), "closure in hot path %s may allocate its captures", hs.name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok && hs.mayEscape(n) {
					hs.report(n.Pos(), "&composite literal in hot path %s escapes to the heap", hs.name)
				}
			}
		case *ast.CallExpr:
			hs.call(n, stack)
		}
		stack = append(stack, n)
		return true
	})
}

func (hs *hotScanner) call(call *ast.CallExpr, stack []ast.Node) {
	if tv, ok := hs.info.Types[call.Fun]; ok && tv.IsType() {
		hs.conversion(call, tv.Type)
		return
	}
	obj := calleeObjectIn(hs.info, call)
	if obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				hs.report(call.Pos(), "make in hot path %s allocates", hs.name)
			case "new":
				if hs.mayEscape(call) {
					hs.report(call.Pos(), "new in hot path %s allocates", hs.name)
				}
			case "append":
				hs.appendCall(call, stack)
			}
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			if why, bad := allocPkgs[fn.Pkg().Path()]; bad {
				hs.report(call.Pos(), "%s.%s in hot path %s %s", fn.Pkg().Name(), fn.Name(), hs.name, why)
				return
			}
		}
	}
	hs.boxing(call)
}

// appendCall flags appends that build a fresh slice (result bound to a
// new variable or consumed as a bare expression). Growing a
// caller-provided buffer in place (`buf = append(buf, ...)`) is the
// sanctioned amortized pattern — see retention.FlipPositionsAppend.
func (hs *hotScanner) appendCall(call *ast.CallExpr, stack []ast.Node) {
	if len(stack) > 0 {
		if as, ok := stack[len(stack)-1].(*ast.AssignStmt); ok && as.Tok.String() == "=" {
			return
		}
	}
	hs.report(call.Pos(), "append into a fresh slice in hot path %s allocates; grow a reused buffer instead", hs.name)
}

func (hs *hotScanner) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argT := hs.info.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	if types.IsInterface(target) && !types.IsInterface(argT) {
		hs.report(call.Pos(), "conversion to interface in hot path %s boxes its operand", hs.name)
		return
	}
	if isStringSlicePair(target, argT) || isStringSlicePair(argT, target) {
		hs.report(call.Pos(), "string/slice conversion in hot path %s copies and allocates", hs.name)
	}
}

// isStringSlicePair reports a string type paired with a byte/rune slice.
func isStringSlicePair(a, b types.Type) bool {
	ab, ok := a.Underlying().(*types.Basic)
	if !ok || ab.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := b.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	el, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (el.Kind() == types.Byte || el.Kind() == types.Rune)
}

// boxing flags call arguments whose concrete static type meets an
// interface parameter: the compiler boxes the value, which on a hot
// path is a hidden per-call allocation.
func (hs *hotScanner) boxing(call *ast.CallExpr) {
	sig, ok := hs.info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				// f(slice...) passes the slice through unboxed.
				continue
			}
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			paramT = sl.Elem()
		case i < params.Len():
			paramT = params.At(i).Type()
		default:
			continue
		}
		argTV, ok := hs.info.Types[arg]
		if !ok {
			continue
		}
		if b, ok := argTV.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if types.IsInterface(paramT) && !types.IsInterface(argTV.Type) {
			hs.report(arg.Pos(), "argument boxes into interface parameter in hot path %s", hs.name)
		}
	}
}
