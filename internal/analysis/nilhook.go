package analysis

import (
	"go/ast"
	"go/types"
)

// Nilhook guards the zero-cost-when-disabled telemetry/checker
// contract from both sides:
//
//   - Provider side: in the hook packages (internal/obs,
//     internal/checker), every exported pointer-receiver method on a
//     type marked //meccvet:nilsafe must begin with a nil-receiver
//     guard, so holders of a nil hook may call through it freely.
//   - Consumer side: a call to (*obs.Recorder).Emit whose arguments
//     construct a composite literal (the obs.Event) must be dominated
//     by a check of the same recorder so the disabled path never even
//     builds the event. The guard form is `if r.Tracing(k)`, which is
//     true only when an attached sink keeps kind k (any argument is
//     accepted; the method name is what marks the guard); a bare
//     `if r != nil` also counts.
var Nilhook = &Analyzer{
	Name: "nilhook",
	Doc: "nil-safe hook types (//meccvet:nilsafe) must nil-guard every " +
		"exported pointer-receiver method, and Emit calls constructing " +
		"events must be dominated by a Tracing(kind)/nil check of the recorder",
	Run: runNilhook,
}

// hookProviderScope names the packages that define nil-safe hook types.
var hookProviderScope = []string{"obs", "checker"}

func runNilhook(pass *Pass) error {
	if anySegment(pass.PkgPath, hookProviderScope) {
		checkNilsafeProviders(pass)
	}
	checkEmitConsumers(pass)
	return nil
}

// checkNilsafeProviders enforces the leading nil-receiver guard on
// every exported pointer-receiver method of marked types.
func checkNilsafeProviders(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvType, ptr := receiverBase(pass, fd)
			if !ptr || recvType == "" || !typeHasDirective(pass.Files, recvType, verbNilsafe) {
				continue
			}
			recv := receiverName(fd)
			if recv == "" {
				// No usable receiver name: the body cannot dereference
				// the receiver, so it is trivially nil-safe.
				continue
			}
			if !startsWithNilGuard(fd.Body, recv) {
				pass.Reportf(fd.Name.Pos(),
					"exported method (*%s).%s must begin with a nil-receiver guard (type is //meccvet:nilsafe)",
					recvType, fd.Name.Name)
			}
		}
	}
}

// receiverBase returns the receiver's base type name and whether the
// receiver is a pointer.
func receiverBase(pass *Pass, fd *ast.FuncDecl) (name string, ptr bool) {
	if len(fd.Recv.List) == 0 {
		return "", false
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := types.Unalias(p.Elem()).(*types.Named)
	if !ok {
		return "", false
	}
	return named.Obj().Name(), true
}

// startsWithNilGuard reports whether the function body's first
// statement compares the receiver against nil — either an if statement
// (`if r == nil { ... }`, possibly || more) or a direct return of a
// nil-comparison expression (`return r != nil && ...`).
func startsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	switch first := body.List[0].(type) {
	case *ast.IfStmt:
		return mentionsNilCheck(first.Cond, recv)
	case *ast.ReturnStmt:
		for _, res := range first.Results {
			if mentionsNilCheck(res, recv) {
				return true
			}
		}
	}
	return false
}

// checkEmitConsumers enforces the guarded-Emit pattern at call sites.
func checkEmitConsumers(pass *Pass) {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Emit" {
			return true
		}
		recvT := pass.TypeOf(sel.X)
		if recvT == nil {
			return true
		}
		p, ok := types.Unalias(recvT).(*types.Pointer)
		if !ok || !namedTypeInPkgSegment(p.Elem(), "obs", "Recorder") {
			return true
		}
		if !argsBuildLiteral(call.Args) {
			return true
		}
		recvStr := types.ExprString(sel.X)
		if !dominatedByRecorderCheck(stack, recvStr) {
			pass.Reportf(call.Pos(),
				"unguarded %s.Emit constructs its event even when tracing is off; wrap in `if %s.Tracing(kind) { ... }`",
				recvStr, recvStr)
		}
		return true
	})
}

// namedTypeInPkgSegment reports whether t is the named type
// <...>/<seg>.<name> (segment matching keeps fixtures in scope).
func namedTypeInPkgSegment(t types.Type, seg, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Name() == name && pathSegment(obj.Pkg().Path(), seg)
}

// argsBuildLiteral reports whether any argument contains a composite
// literal (work the disabled path should never do).
func argsBuildLiteral(args []ast.Expr) bool {
	for _, a := range args {
		found := false
		ast.Inspect(a, func(n ast.Node) bool {
			if _, ok := n.(*ast.CompositeLit); ok {
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

// dominatedByRecorderCheck reports whether some enclosing if condition
// checks the same recorder expression — via .Tracing(k) or a nil
// comparison.
func dominatedByRecorderCheck(stack []ast.Node, recvStr string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if condChecksRecorder(ifs.Cond, recvStr) {
			return true
		}
	}
	return false
}

// condChecksRecorder matches `<recv>.Tracing(k)` calls and
// `<recv> != nil` / `<recv> == nil` comparisons anywhere inside cond.
func condChecksRecorder(cond ast.Expr, recvStr string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Tracing" && types.ExprString(sel.X) == recvStr {
				found = true
				return false
			}
		case *ast.BinaryExpr:
			if isExprNilPair(n.X, n.Y, recvStr) || isExprNilPair(n.Y, n.X, recvStr) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isExprNilPair reports whether a prints as the recorder expression and
// b is nil.
func isExprNilPair(a, b ast.Expr, recvStr string) bool {
	if types.ExprString(ast.Unparen(a)) != recvStr {
		return false
	}
	id, ok := ast.Unparen(b).(*ast.Ident)
	return ok && id.Name == "nil"
}
