package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// buildTestSSA lifts one snippet function into SSA form the way
// Program.ssaOf does, without a whole Program around it.
func buildTestSSA(t *testing.T, src, name string) (*ssaFunc, *types.Info) {
	t.Helper()
	fd, info := parseFunc(t, src, name)
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		t.Fatalf("no *types.Func for %s", name)
	}
	fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: &Package{Info: info}}
	return buildSSA(fi, buildCFG(fd.Body)), info
}

// phiGolden renders the placed phis as one line per phi: the block,
// the defined version and the operand versions in predecessor order
// ("-" marks an edge where the variable is dead). Version numbers
// follow renaming order, so x0 is the first version of x created.
func phiGolden(f *ssaFunc) []string {
	ver := make(map[*ssaVal]string, len(f.vals))
	count := make(map[string]int)
	for _, v := range f.vals {
		ver[v] = fmt.Sprintf("%s%d", v.name(), count[v.name()])
		count[v.name()]++
	}
	blocks := make([]int, 0, len(f.phis))
	for b := range f.phis {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	var out []string
	for _, b := range blocks {
		for _, phi := range f.phis[b] {
			args := make([]string, len(phi.args))
			for i, a := range phi.args {
				if a == nil {
					args[i] = "-"
				} else {
					args[i] = ver[a]
				}
			}
			out = append(out, fmt.Sprintf("b%d: %s = phi(%s)", b, ver[phi.out], strings.Join(args, ", ")))
		}
	}
	return out
}

func checkGolden(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("phi placement mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestSSAPhiDiamond pins the classic diamond: one phi at the join,
// merging the two arm versions.
func TestSSAPhiDiamond(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func diamond(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "diamond")
	checkGolden(t, phiGolden(f), []string{
		"b3: x3 = phi(x1, x2)",
	})
	checkDefUse(t, f, info)
}

// TestSSAPhiLoop pins the loop header phi: the zero-trip entry version
// merges with the back-edge version.
func TestSSAPhiLoop(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func loop(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`, "loop")
	checkGolden(t, phiGolden(f), []string{
		"b1: s1 = phi(s0, s2)",
		"b1: i1 = phi(i0, i2)",
	})
	checkDefUse(t, f, info)
}

// TestSSAPhiNestedLoop pins the two-level nesting: each header gets
// its own s phi, the inner one merging the outer phi output with the
// inner back edge. The iterated dominance frontier also places a j phi
// at the outer header whose entry-edge operand is dead ("-"): pruned
// enough, never wrong.
func TestSSAPhiNestedLoop(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func nested(n, m int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			s = s + j
		}
	}
	return s
}`, "nested")
	checkGolden(t, phiGolden(f), []string{
		"b1: s1 = phi(s0, s2)",
		"b1: i1 = phi(i0, i2)",
		"b1: j0 = phi(-, j2)",
		"b5: s2 = phi(s1, s3)",
		"b5: j2 = phi(j1, j3)",
	})
	checkDefUse(t, f, info)
}

// useBlocks maps every identifier use in f's body to the block that
// evaluates it, walking the blocks the way buildSSA's renaming does.
func useBlocks(f *ssaFunc, info *types.Info) map[*ast.Ident]int {
	out := make(map[*ast.Ident]int)
	for b, blk := range f.g.blocks {
		for _, s := range blk.stmts {
			stmtEvents(info, s, func(id *ast.Ident, def bool, _ ast.Expr) {
				if !def {
					out[id] = b
				}
			})
		}
		if ci := f.g.condAt(b); ci != nil {
			exprUses(ci.cond, func(id *ast.Ident) { out[id] = b })
		}
		for _, e := range f.g.extraUses[b] {
			exprUses(e, func(id *ast.Ident) { out[id] = b })
		}
	}
	return out
}

// checkDefUse asserts the SSA structural invariants the downstream
// analyzers rely on: every def dominates its uses, every phi operand
// dominates the predecessor edge it flows in on, phi outputs link back
// to their phi, and phi arity matches the block's predecessor count.
func checkDefUse(t *testing.T, f *ssaFunc, info *types.Info) {
	t.Helper()
	preds := f.g.predecessors()
	blockOf := useBlocks(f, info)
	for id, v := range f.useVal {
		b, ok := blockOf[id]
		if !ok {
			t.Errorf("use of %s at %v lies in no block", id.Name, id.Pos())
			continue
		}
		if v.block != b && !f.dom.dominates(v.block, b) {
			t.Errorf("def of %s%d in b%d does not dominate use in b%d", v.name(), v.id, v.block, b)
		}
	}
	for _, v := range f.vals {
		if v.phi == nil {
			continue
		}
		if v.phi.out != v {
			t.Errorf("phi out link broken for %s", v.name())
		}
		if len(v.phi.args) != len(preds[v.phi.block]) {
			t.Errorf("phi for %s at b%d has %d args, block has %d preds",
				v.name(), v.phi.block, len(v.phi.args), len(preds[v.phi.block]))
			continue
		}
		for i, a := range v.phi.args {
			if p := preds[v.phi.block][i]; a != nil && a.block != p && !f.dom.dominates(a.block, p) {
				t.Errorf("phi operand %s%d (b%d) does not dominate its edge into b%d",
					a.name(), a.id, a.block, v.phi.block)
			}
		}
	}
}

// TestSSADefUseInvariants sweeps the invariant checker over a body
// mixing branches, loops, switches and early returns.
func TestSSADefUseInvariants(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func churn(n int, mode int) int {
	total := 0
	step := 1
	for i := 0; i < n; i++ {
		switch mode {
		case 0:
			step = 2
		case 1:
			if i > 3 {
				step = i
			}
		default:
			if total > 100 {
				return total
			}
		}
		total = total + step
	}
	return total
}`, "churn")
	if len(f.phis) == 0 {
		t.Fatal("fixture produced no phis; invariants untested")
	}
	checkDefUse(t, f, info)
}

// TestSSAEligibility pins the conservative exclusions: address-taken
// and captured variables stay unversioned, while a pointer whose
// pointee is mutated stays versioned (the store lands behind the
// indirection).
func TestSSAEligibility(t *testing.T) {
	f, info := buildTestSSA(t, `package p
type rec struct{ n int }
func mixed(n int) int {
	a := 1
	b := 2
	p := &b // b is address-taken: unversioned
	c := 3
	g := func() int { return c } // c is captured: unversioned
	r := &rec{}
	r.n = n // partial write behind a pointer: r stays versioned
	var s rec
	s.n = n // direct partial write: s is unversioned
	return a + *p + g() + r.n + s.n
}`, "mixed")
	status := make(map[string]bool)
	for v := range f.eligible {
		status[v.Name()] = true
	}
	for name, want := range map[string]bool{
		"a": true, "b": false, "c": false, "r": true, "s": false,
	} {
		if status[name] != want {
			t.Errorf("eligible[%s] = %v, want %v", name, status[name], want)
		}
	}
	checkDefUse(t, f, info)
}

// TestSSAConstSolver runs the generic lattice solver end to end: the
// constant lattice folds straight-line chains and goes to top across
// a loop-carried phi.
func TestSSAConstSolver(t *testing.T) {
	f, info := buildTestSSA(t, `package p
func consts(n uint64) uint64 {
	a := uint64(40)
	b := a + 2
	c := b
	acc := uint64(0)
	for i := uint64(0); i < n; i++ {
		acc = acc + b
	}
	return c + acc
}`, "consts")
	facts := solveConsts(f, info)
	byName := func(name string) []cpVal {
		var out []cpVal
		for _, v := range f.vals {
			if v.name() == name {
				out = append(out, facts[v])
			}
		}
		return out
	}
	for _, cv := range byName("c") {
		if cv.state != 1 || cv.con != 42 {
			t.Errorf("c = %+v, want const 42", cv)
		}
	}
	accTop := false
	for _, cv := range byName("acc") {
		if cv.state == 2 {
			accTop = true
		}
	}
	if !accTop {
		t.Errorf("loop-carried acc never reached top: %+v", byName("acc"))
	}
}
