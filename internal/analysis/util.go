package analysis

import (
	"go/ast"
	"go/types"
)

// funcObject resolves a function reference, an identifier or a
// selector, to the object it names: a package-level function, a method
// or a builtin for a static callee. Pass call.Fun for a call, or the
// expression itself for a function passed as a value. It returns nil
// for any other expression.
func funcObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		// Package-qualified reference: pkg.Fn.
		return info.Uses[e.Sel]
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
