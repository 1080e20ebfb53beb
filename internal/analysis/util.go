package analysis

import (
	"go/ast"
	"go/types"
)

// calleeObject resolves the object a call expression invokes: a
// package-level function, a method, or a builtin. Returns nil for
// indirect calls through function values and for type conversions.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.Fn.
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// calleeObjectExpr resolves a bare function reference (an identifier or
// a selector, as when a declared function is passed as an argument) to
// its object, or nil.
func (p *Pass) calleeObjectExpr(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// isPkgLevelFunc reports whether obj is a package-level function of the
// package with the given import path.
func isPkgLevelFunc(obj types.Object, pkgPath string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// namedType reports whether t (after unaliasing) is the named type
// pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// errorInterface is the universe error type's method set.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error (and is not the
// untyped nil).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if basic, ok := t.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorInterface)
}
