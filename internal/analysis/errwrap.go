package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Errwrap keeps the sentinel-error chains (stats.ErrEmpty,
// trace.ErrBadRecord, sim.ErrBadScheme, ...) intact: fmt.Errorf must
// wrap error operands with %w rather than stringify them with %v/%s/%q,
// callers must not flatten errors through .Error() inside formatting
// calls, and error equality must go through errors.Is so wrapped chains
// still match.
var Errwrap = &Analyzer{
	Name: "errwrap",
	Doc: "wrap errors with %w in fmt.Errorf (never %v/%s/%q or " +
		".Error()), and compare errors with errors.Is instead of ==/!=",
	Run: runErrwrap,
}

func runErrwrap(pass *Pass) error {
	pass.WithStack(func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkErrorf(pass, n)
			checkErrorStringified(pass, n)
		case *ast.BinaryExpr:
			checkErrorComparison(pass, n)
		}
		return true
	})
	return nil
}

// checkErrorf verifies that every error-typed argument of a fmt.Errorf
// call is consumed by a %w verb.
func checkErrorf(pass *Pass, call *ast.CallExpr) {
	obj := funcObject(pass.Info, call.Fun)
	if !isPkgLevelFunc(obj, "fmt") || obj.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return
	}
	args := call.Args[1:]
	for i, verb := range verbs {
		if i >= len(args) || verb == 'w' {
			continue
		}
		if isErrorType(pass.TypeOf(args[i])) {
			pass.Reportf(args[i].Pos(),
				"error stringified with %%%c loses the chain for errors.Is/As; wrap it with %%w", verb)
		}
	}
}

// formatVerbs returns the verb rune consuming each successive argument.
// ok is false for formats the simple scanner cannot map (explicit
// argument indexes).
func formatVerbs(format string) (verbs []rune, ok bool) {
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i < len(rs) && rs[i] == '%' {
			continue
		}
		// Flags, width, precision; '*' consumes an argument of its own.
		for i < len(rs) && (strings.ContainsRune("+-# 0.", rs[i]) || rs[i] >= '0' && rs[i] <= '9' || rs[i] == '*') {
			if rs[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		if i < len(rs) && rs[i] == '[' {
			return nil, false
		}
		if i < len(rs) {
			verbs = append(verbs, rs[i])
		}
	}
	return verbs, true
}

// checkErrorStringified flags err.Error() results flowing into fmt
// formatting calls, where the error value itself should be passed.
func checkErrorStringified(pass *Pass, call *ast.CallExpr) {
	obj := funcObject(pass.Info, call.Fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	for _, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok || len(inner.Args) != 0 {
			continue
		}
		sel, ok := inner.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" {
			continue
		}
		if isErrorType(pass.TypeOf(sel.X)) {
			pass.Reportf(arg.Pos(), "pass the error itself (with %%v or %%w), not %s.Error()", types.ExprString(sel.X))
		}
	}
}

// checkErrorComparison flags ==/!= between two non-nil error values.
func checkErrorComparison(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if !isErrorType(pass.TypeOf(be.X)) || !isErrorType(pass.TypeOf(be.Y)) {
		return
	}
	pass.Reportf(be.Pos(), "comparing errors with %s misses wrapped chains; use errors.Is", be.Op)
}
