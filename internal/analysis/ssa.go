package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ssa.go lifts one function body into pruned-enough SSA form on top of
// the cfg basic blocks and the dominator tree: every SSA-eligible
// local variable is split into versions (one per definition), phi
// nodes merge versions at dominance-frontier join points, and each
// identifier use resolves to exactly one reaching version. solveSSA
// runs unitflow's clock units, determinism's seed provenance and
// cyclewrap's constants over the resulting graph.
//
// Eligibility is conservative: a variable is versioned only when the
// analysis can see every definition. Address-taken variables, variables
// mentioned inside nested function literals (captured), and variables
// partially redefined through field or array-element writes stay
// unversioned — uses of those simply resolve to no SSA value, and the
// analyzers treat them as unknown. That loses precision, never
// soundness, for the may-analyses built on top.

// ssaFunc is the SSA view of one function body.
type ssaFunc struct {
	fn  *types.Func
	g   *cfg
	dom *domTree
	// vals lists every SSA value in renaming (dominance) order.
	vals []*ssaVal
	// phis holds the phi nodes placed at each join block.
	phis map[int][]*ssaPhi
	// useVal resolves each identifier use to its reaching version.
	useVal map[*ast.Ident]*ssaVal
	// eligible marks the versioned variables.
	eligible map[*types.Var]bool
	// parent maps every node in the body to its syntactic parent, for
	// cyclewrap's guard recognition and enclosingSite.
	parent map[ast.Node]ast.Node
	// stmtUses records, per recorded statement, the SSA values its
	// expressions consume — the dependency edges of the sparse solver.
	stmtUses map[ast.Stmt][]*ssaVal
}

// ssaVal is one SSA version of a variable.
type ssaVal struct {
	id int
	v  *types.Var
	// def is the defining identifier occurrence; nil for entry values
	// (parameters, receiver, named results) and phi outputs.
	def *ast.Ident
	// defStmt is the statement holding the definition (nil for entry
	// values and phis).
	defStmt ast.Stmt
	// rhs is the defining expression when the definition is a 1:1
	// assignment (x := e, x = e); nil for multi-assign, op-assign,
	// zero-value declarations, entry values and phis.
	rhs ast.Expr
	// phi is the merging phi when this value is a phi output.
	phi *ssaPhi
	// entry marks parameter/receiver/named-result values live on entry.
	entry bool
	block int
}

// ssaPhi merges the versions of one variable at a join block.
type ssaPhi struct {
	v     *types.Var
	block int
	// args holds one operand per predecessor, in predecessors() order;
	// nil operands come from paths where the variable is not yet
	// defined (dead on that edge).
	args []*ssaVal
	out  *ssaVal
}

// buildSSA lifts fi's body into SSA over the prebuilt cfg.
func buildSSA(fi *FuncInfo, g *cfg) *ssaFunc {
	info := fi.Pkg.Info
	f := &ssaFunc{
		fn:       fi.Fn,
		g:        g,
		dom:      g.dominators(),
		phis:     make(map[int][]*ssaPhi),
		useVal:   make(map[*ast.Ident]*ssaVal),
		parent:   make(map[ast.Node]ast.Node),
		stmtUses: make(map[ast.Stmt][]*ssaVal),
	}
	f.eligible = ssaEligible(info, fi.Decl)
	buildParents(fi.Decl, f.parent)

	// Entry values: receiver, parameters, named results.
	entryVars := entryIdents(fi.Decl)
	stacks := make(map[*types.Var][]*ssaVal)
	newVal := func(v *types.Var, block int) *ssaVal {
		val := &ssaVal{id: len(f.vals), v: v, block: block}
		f.vals = append(f.vals, val)
		stacks[v] = append(stacks[v], val)
		return val
	}
	for _, id := range entryVars {
		v, ok := info.Defs[id].(*types.Var)
		if !ok || !f.eligible[v] {
			continue
		}
		val := newVal(v, 0)
		val.entry = true
	}

	// Phi placement: for each variable, insert phis over the iterated
	// dominance frontier of its definition blocks.
	defBlocks := f.collectDefBlocks(info)
	vars := make([]*types.Var, 0, len(defBlocks))
	for v := range defBlocks {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	phiAt := make(map[*types.Var]map[int]*ssaPhi)
	for _, v := range vars {
		placed := make(map[int]*ssaPhi)
		phiAt[v] = placed
		work := append([]int(nil), defBlocks[v]...)
		inWork := make(map[int]bool)
		for _, b := range work {
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			if !f.dom.reachable(b) {
				continue
			}
			for _, df := range f.dom.frontier[b] {
				if placed[df] != nil {
					continue
				}
				phi := &ssaPhi{v: v, block: df, args: make([]*ssaVal, len(f.g.predecessors()[df]))}
				placed[df] = phi
				f.phis[df] = append(f.phis[df], phi)
				if !inWork[df] {
					inWork[df] = true
					work = append(work, df)
				}
			}
		}
	}
	// Keep each block's phis in variable declaration order for
	// deterministic numbering.
	for b := range f.phis {
		sort.Slice(f.phis[b], func(i, j int) bool { return f.phis[b][i].v.Pos() < f.phis[b][j].v.Pos() })
	}

	// Renaming: DFS over the dominator tree, maintaining a version
	// stack per variable.
	preds := f.g.predecessors()
	var rename func(b int)
	rename = func(b int) {
		var framePushed []*ssaVal
		push := func(v *types.Var, block int) *ssaVal {
			val := newVal(v, block)
			framePushed = append(framePushed, val)
			return val
		}
		for _, phi := range f.phis[b] {
			out := push(phi.v, b)
			out.phi = phi
			phi.out = out
		}
		handleUse := func(id *ast.Ident, stmt ast.Stmt) {
			v, ok := info.Uses[id].(*types.Var)
			if !ok {
				if v, ok = info.Defs[id].(*types.Var); !ok {
					return
				}
			}
			if !f.eligible[v] {
				return
			}
			stack := stacks[v]
			if len(stack) == 0 {
				return
			}
			top := stack[len(stack)-1]
			f.useVal[id] = top
			if stmt != nil {
				f.stmtUses[stmt] = append(f.stmtUses[stmt], top)
			}
		}
		for _, s := range f.g.blocks[b].stmts {
			s := s
			stmtEvents(info, s, func(id *ast.Ident, def bool, rhs ast.Expr) {
				if !def {
					handleUse(id, s)
					return
				}
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					if v, ok = info.Uses[id].(*types.Var); !ok {
						return
					}
				}
				if !f.eligible[v] {
					return
				}
				val := push(v, b)
				val.def = id
				val.defStmt = s
				val.rhs = rhs
			})
		}
		// Block-terminating expressions outside any recorded statement:
		// branch conditions, switch tags and case patterns.
		if ci := f.g.condAt(b); ci != nil {
			exprUses(ci.cond, func(id *ast.Ident) { handleUse(id, nil) })
		}
		for _, e := range f.g.extraUses[b] {
			exprUses(e, func(id *ast.Ident) { handleUse(id, nil) })
		}
		// Fill phi operands of successors for the edges leaving b.
		for _, succ := range f.g.blocks[b].succs {
			for _, phi := range f.phis[succ] {
				stack := stacks[phi.v]
				if len(stack) == 0 {
					continue
				}
				top := stack[len(stack)-1]
				for i, p := range preds[succ] {
					if p == b && phi.args[i] == nil {
						phi.args[i] = top
					}
				}
			}
		}
		for _, c := range f.dom.children[b] {
			rename(c)
		}
		// Pop this frame's definitions in reverse creation order. Entry
		// pushes happen before the DFS and stay for its whole duration.
		for i := len(framePushed) - 1; i >= 0; i-- {
			val := framePushed[i]
			stack := stacks[val.v]
			stacks[val.v] = stack[:len(stack)-1]
		}
	}
	if len(f.g.blocks) > 0 {
		rename(0)
	}
	return f
}

// collectDefBlocks finds, per eligible variable, the blocks holding a
// definition (entry values define in block 0).
func (f *ssaFunc) collectDefBlocks(info *types.Info) map[*types.Var][]int {
	out := make(map[*types.Var][]int)
	add := func(v *types.Var, b int) {
		blocks := out[v]
		if len(blocks) == 0 || blocks[len(blocks)-1] != b {
			out[v] = append(blocks, b)
		}
	}
	for bi, blk := range f.g.blocks {
		for _, s := range blk.stmts {
			stmtEvents(info, s, func(id *ast.Ident, def bool, _ ast.Expr) {
				if !def {
					return
				}
				v, ok := info.Defs[id].(*types.Var)
				if !ok {
					if v, ok = info.Uses[id].(*types.Var); !ok {
						return
					}
				}
				if f.eligible[v] {
					add(v, bi)
				}
			})
		}
	}
	// Entry definitions live in block 0.
	for _, val := range f.vals {
		if val.entry {
			add(val.v, 0)
		}
	}
	return out
}

// entryIdents collects the receiver, parameter and named-result
// identifiers of a declaration.
func entryIdents(decl *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if name.Name != "_" {
					out = append(out, name)
				}
			}
		}
	}
	addFields(decl.Recv)
	addFields(decl.Type.Params)
	addFields(decl.Type.Results)
	return out
}

// buildParents records each node's syntactic parent.
func buildParents(root ast.Node, parent map[ast.Node]ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

// ssaEligible decides which variables can be versioned: local,
// never address-taken, never mentioned inside a nested function
// literal, and never partially redefined through a selector/index/star
// assignment target.
func ssaEligible(info *types.Info, decl *ast.FuncDecl) map[*types.Var]bool {
	eligible := make(map[*types.Var]bool)
	// Candidates: every variable defined by the declaration (params,
	// receiver, results, locals).
	var collect func(n ast.Node, inLit bool)
	ineligible := make(map[*types.Var]bool)
	varOf := func(id *ast.Ident) *types.Var {
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			return v
		}
		return nil
	}
	// lhsRoot walks an assignment target down to its root identifier,
	// reporting whether the path goes through a selector, star or
	// index operation (a partial redefinition of the root). A path that
	// crosses a pointer, slice or map dereference stops with no root:
	// the store lands behind an indirection, so the root variable's own
	// value is untouched and it can stay versioned.
	lhsRoot := func(e ast.Expr) (*ast.Ident, bool) {
		partial := false
		indirect := func(x ast.Expr) bool {
			tv, ok := info.Types[x]
			if !ok || tv.Type == nil {
				return false
			}
			switch tv.Type.Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map:
				return true
			}
			return false
		}
		for {
			switch t := e.(type) {
			case *ast.Ident:
				return t, partial
			case *ast.SelectorExpr:
				if indirect(t.X) {
					return nil, false
				}
				e, partial = t.X, true
			case *ast.StarExpr:
				return nil, false
			case *ast.IndexExpr:
				if indirect(t.X) {
					return nil, false
				}
				e, partial = t.X, true
			case *ast.ParenExpr:
				e = t.X
			default:
				return nil, partial
			}
		}
	}
	markTargets := func(targets []ast.Expr) {
		for _, t := range targets {
			if id, partial := lhsRoot(t); id != nil && partial {
				if v := varOf(id); v != nil {
					ineligible[v] = true
				}
			}
		}
	}
	collect = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if !inLit {
					collect(n.Body, true)
					return false
				}
			case *ast.Ident:
				v := varOf(n)
				if v == nil || v.IsField() {
					return true
				}
				if inLit {
					// Mentioned inside a nested literal: captured (or
					// closure-local — also excluded from the outer SSA).
					ineligible[v] = true
					return true
				}
				if _, ok := info.Defs[n].(*types.Var); ok {
					eligible[v] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, _ := lhsRoot(n.X); id != nil {
						if v := varOf(id); v != nil {
							ineligible[v] = true
						}
					}
				}
			case *ast.AssignStmt:
				markTargets(n.Lhs)
			case *ast.IncDecStmt:
				markTargets([]ast.Expr{n.X})
			case *ast.RangeStmt:
				var targets []ast.Expr
				if n.Key != nil {
					targets = append(targets, n.Key)
				}
				if n.Value != nil {
					targets = append(targets, n.Value)
				}
				markTargets(targets)
			}
			return true
		})
	}
	// Entry identifiers are definitions too.
	for _, id := range entryIdents(decl) {
		if v, ok := info.Defs[id].(*types.Var); ok {
			eligible[v] = true
		}
	}
	if decl.Body != nil {
		collect(decl.Body, false)
	}
	for v := range ineligible {
		delete(eligible, v)
	}
	// Globals and fields can never be versioned, whatever the scan saw.
	for v := range eligible {
		if v.IsField() || v.Parent() == nil {
			delete(eligible, v)
		}
	}
	return eligible
}

// stmtEvents walks one recorded statement in evaluation order,
// emitting use events for identifier reads and def events (with the
// 1:1 defining expression when there is one) for plain-identifier
// writes. Nested function literal bodies are skipped: captured
// variables are SSA-ineligible anyway.
func stmtEvents(info *types.Info, s ast.Stmt, emit func(id *ast.Ident, def bool, rhs ast.Expr)) {
	use := func(e ast.Expr) {
		if e == nil {
			return
		}
		exprUses(e, func(id *ast.Ident) { emit(id, false, nil) })
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			use(r)
		}
		opAssign := s.Tok != token.ASSIGN && s.Tok != token.DEFINE
		for i, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				use(l)
				continue
			}
			if opAssign {
				emit(id, false, nil) // x += e reads x first
				emit(id, true, nil)
				continue
			}
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			}
			emit(id, true, rhs)
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok && id.Name != "_" {
			emit(id, false, nil)
			emit(id, true, nil)
		} else {
			use(s.X)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				use(v)
			}
			for i, name := range vs.Names {
				if name.Name == "_" {
					continue
				}
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				emit(name, true, rhs)
			}
		}
	case *ast.RangeStmt:
		use(s.X)
		for _, kv := range []ast.Expr{s.Key, s.Value} {
			if kv == nil {
				continue
			}
			if id, ok := kv.(*ast.Ident); ok && id.Name != "_" {
				emit(id, true, nil)
			} else {
				use(kv)
			}
		}
	case *ast.ExprStmt:
		use(s.X)
	case *ast.SendStmt:
		use(s.Chan)
		use(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			use(r)
		}
	case *ast.DeferStmt:
		use(s.Call)
	case *ast.GoStmt:
		use(s.Call)
	case *ast.LabeledStmt:
		stmtEvents(info, s.Stmt, emit)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Compound statements are never recorded whole; anything else
		// (select comm assignments are plain AssignStmts) is covered
		// above. Fall back to use-only scanning for safety.
		if s != nil {
			ast.Inspect(s, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					emit(id, false, nil)
				}
				return true
			})
		}
	}
}

// exprUses emits every identifier occurrence in an expression,
// skipping nested function literal bodies.
func exprUses(e ast.Expr, emit func(*ast.Ident)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			emit(n)
		}
		return true
	})
}

// enclosingSite locates the basic block of the recorded statement
// enclosing a node.
func enclosingSite(f *ssaFunc, n ast.Node) (block int, ok bool) {
	for cur := n; cur != nil; cur = f.parent[cur] {
		if s, isStmt := cur.(ast.Stmt); isStmt {
			if b, recorded := f.g.stmtBlock[s]; recorded {
				return b, true
			}
		}
	}
	return 0, false
}

// solveSSA runs one value lattice over the SSA graph to a fixpoint
// with a def-use worklist: eval computes a non-phi value's fact from
// its defining form (reading operand facts through get), join merges
// phi operands. The lattice must be finite-height for termination; a
// step cap bounds runaway non-monotone evals.
func solveSSA[T comparable](f *ssaFunc, bottom T, eval func(v *ssaVal, get func(*ssaVal) T) T, join func(a, b T) T) map[*ssaVal]T {
	facts := make(map[*ssaVal]T, len(f.vals))
	get := func(v *ssaVal) T {
		if v == nil {
			return bottom
		}
		return facts[v]
	}
	// consumers: which values must be re-evaluated when v's fact moves.
	consumers := make(map[*ssaVal][]*ssaVal)
	for _, val := range f.vals {
		if val.phi != nil {
			for _, arg := range val.phi.args {
				if arg != nil {
					consumers[arg] = append(consumers[arg], val)
				}
			}
			continue
		}
		if val.defStmt != nil {
			for _, operand := range f.stmtUses[val.defStmt] {
				consumers[operand] = append(consumers[operand], val)
			}
		}
	}
	recompute := func(val *ssaVal) T {
		if val.phi != nil {
			var acc T
			first := true
			for _, arg := range val.phi.args {
				av := get(arg)
				if first {
					acc, first = av, false
				} else {
					acc = join(acc, av)
				}
			}
			if first {
				return bottom
			}
			return acc
		}
		return eval(val, get)
	}
	work := append([]*ssaVal(nil), f.vals...)
	inWork := make(map[*ssaVal]bool, len(work))
	for _, v := range work {
		inWork[v] = true
	}
	steps, maxSteps := 0, 64*len(f.vals)+256
	for len(work) > 0 && steps < maxSteps {
		steps++
		val := work[0]
		work = work[1:]
		inWork[val] = false
		nv := recompute(val)
		if nv == facts[val] {
			continue
		}
		facts[val] = nv
		for _, c := range consumers[val] {
			if !inWork[c] {
				inWork[c] = true
				work = append(work, c)
			}
		}
	}
	return facts
}
