package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks one source file and returns the named
// function's declaration plus the type facts.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test_src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil
}

// TestCFGSwitchAndBreak pins the switch and break lowering through the
// SSA form: every clause of a switch with a default joins at the exit,
// so x gets one 3-operand phi there, and the loop's break edge reaches
// the loop exit without adding an x phi.
func TestCFGSwitchAndBreak(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func f(k, n int) int {
	x := 0
	switch k {
	case 0:
		x = 1
	case 1:
		x = 2
	default:
		x = 4
	}
	for i := 0; i < n; i++ {
		if i == k {
			break
		}
	}
	return x
}`, "f")
	checkGolden(t, phiGolden(f), []string{
		"b1: x1 = phi(x2, x3, x4)",
		"b5: i1 = phi(i0, i2)",
	})
	checkDefUse(t, f, info)
}

// TestCFGRecordsStatements checks stmtBlock coverage: every straight-
// line statement of a mixed body is locatable, which enclosingSite
// depends on.
func TestCFGRecordsStatements(t *testing.T) {
	fd, _ := parseFunc(t, `package p
func f(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = 1
	}
	switch n {
	case 0:
		x = 2
	}
	return x
}`, "f")
	g := buildCFG(fd.Body)
	recorded := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		switch s.(type) {
		case *ast.AssignStmt, *ast.ReturnStmt, *ast.IncDecStmt:
			if _, ok := g.stmtBlock[s]; !ok {
				t.Errorf("statement not recorded in any block: %v", s)
			}
			recorded++
		}
		return true
	})
	if recorded < 5 {
		t.Fatalf("walked only %d checkable statements, fixture broken", recorded)
	}
}
