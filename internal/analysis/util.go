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

// receiverName returns the name of a method's receiver identifier, or
// "" when absent or blank.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	name := fd.Recv.List[0].Names[0].Name
	if name == "_" {
		return ""
	}
	return name
}

// mentionsNilCheck reports whether the expression contains a binary
// comparison of the named identifier against nil (either direction,
// either operator, anywhere in a boolean combination).
func mentionsNilCheck(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if isIdentNilPair(be.X, be.Y, name) || isIdentNilPair(be.Y, be.X, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isIdentNilPair reports whether a is the named identifier and b is nil.
func isIdentNilPair(a, b ast.Expr, name string) bool {
	id, ok := ast.Unparen(a).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	nb, ok := ast.Unparen(b).(*ast.Ident)
	return ok && nb.Name == "nil"
}
