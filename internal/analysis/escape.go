package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// escape.go is an SSA-based escape analysis: it decides, per allocation
// expression (function literal, &CompositeLit, new(T)), whether the
// allocated object can outlive the frame that created it. The hotpath
// analyzer consults it before flagging — a closure or composite that
// provably never escapes is stack-allocatable and costs no heap
// traffic, so reporting it would only push people toward
// //meccvet:allow noise — and reports the allow directives the proof
// has made stale.
//
// The analysis is a may-escape BFS over SSA copies: starting from the
// value the allocation defines, every use is classified as benign
// (field/element reads, comparisons, direct calls of the value),
// a copy (tracked transitively), or an escape (call argument, return,
// send, store into memory, address-taken, method receiver). Anything
// unclassifiable counts as an escape, so the proof errs toward "may
// escape" — exactly the safe direction for suppressing findings is the
// other way around: only proven-local allocations are exempted.

// escapeAnalysis returns the allocation expressions in fi's body proven
// never to escape their frame. Keys are the exact AST nodes the hotpath
// scanner reports: the *ast.FuncLit, the &CompositeLit *ast.UnaryExpr,
// or the new(T) *ast.CallExpr.
func escapeAnalysis(f *ssaFunc, fi *FuncInfo) map[ast.Expr]bool {
	info := fi.Pkg.Info
	proven := make(map[ast.Expr]bool)
	// Index 1:1 defining expressions by their syntax.
	rhsVal := make(map[ast.Expr]*ssaVal, len(f.vals))
	for _, v := range f.vals {
		if v.rhs != nil {
			rhsVal[ast.Unparen(v.rhs)] = v
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || !isAllocExpr(info, e) {
			return true
		}
		if v := rhsVal[e]; v != nil {
			if !valEscapes(f, info, v) {
				proven[e] = true
			}
			return true
		}
		// Unbound allocation: the only provably-local form is a function
		// literal invoked directly (func(){...}()) outside go/defer — the
		// closure dies with the call.
		if _, isLit := e.(*ast.FuncLit); isLit {
			if call, ok := f.parent[e].(*ast.CallExpr); ok && call.Fun == e {
				switch f.parent[call].(type) {
				case *ast.GoStmt, *ast.DeferStmt:
				default:
					proven[e] = true
				}
			}
		}
		return true
	})
	return proven
}

// isAllocExpr recognizes the three allocation forms the hotpath scanner
// reports and the escape analysis can track: function literals,
// &CompositeLit, and the new builtin.
func isAllocExpr(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.FuncLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "new"
			}
		}
	}
	return false
}

// valEscapes walks the copy closure of root over def-use chains,
// classifying every use site; it reports true as soon as any use may
// let the object outlive the frame.
func valEscapes(f *ssaFunc, info *types.Info, root *ssaVal) bool {
	seen := map[*ssaVal]bool{root: true}
	work := []*ssaVal{root}
	push := func(v *ssaVal) {
		if v != nil && !seen[v] {
			seen[v] = true
			work = append(work, v)
		}
	}
	for len(work) > 0 {
		v := work[0]
		work = work[1:]
		for _, u := range v.uses {
			if u.phi != nil {
				push(u.phi.out)
				continue
			}
			copies, escapes := classifyUse(f, info, u.id)
			if escapes {
				return true
			}
			for _, c := range copies {
				push(c)
			}
		}
	}
	return false
}

// classifyUse climbs from one identifier use to the context consuming
// it and decides: does the object escape here, and does the value flow
// into further SSA versions (copies) the walk must follow? depth counts
// field/element/deref hops already climbed — once the context consumes
// a loaded component rather than the pointer itself, plain reads are
// benign (stores that could make a component alias the object are
// flagged at their own RHS use site, at depth zero).
func classifyUse(f *ssaFunc, info *types.Info, id *ast.Ident) (copies []*ssaVal, escapes bool) {
	var node ast.Node = id
	depth := 0
	for {
		parent := f.parent[node]
		if parent == nil {
			return nil, true
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			node = p
		case *ast.SelectorExpr:
			if p.X != ast.Node(node) {
				return nil, false // the field/method name itself
			}
			if sel, ok := info.Selections[p]; ok && sel.Kind() != types.FieldVal {
				return nil, true // method value/call retains the receiver
			}
			depth++
			node = p
		case *ast.StarExpr:
			depth++
			node = p
		case *ast.IndexExpr:
			if p.Index == ast.Node(node) {
				return nil, false // used as the index value
			}
			depth++
			node = p
		case *ast.SliceExpr:
			// Slicing the object itself re-exposes its backing store; a
			// slice loaded from a field is a detached header copy.
			return nil, p.X == ast.Node(node) && depth == 0
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return nil, true // direct or interior pointer taken
			}
			return nil, false // arithmetic/receive produce detached values
		case *ast.BinaryExpr:
			return nil, false // comparisons and arithmetic don't retain
		case *ast.CallExpr:
			if depth > 0 {
				return nil, false // a loaded component is passed/called, not the object
			}
			if p.Fun == ast.Node(node) {
				// Calling the tracked func value runs it; only go/defer
				// let the closure outlive the statement.
				switch f.parent[p].(type) {
				case *ast.GoStmt, *ast.DeferStmt:
					return nil, true
				}
				return nil, false
			}
			return nil, true // argument (or conversion operand): escapes
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return nil, depth == 0 // the object stored into a composite escapes
		case *ast.ReturnStmt:
			return nil, depth == 0
		case *ast.SendStmt:
			return nil, p.Value == ast.Node(node) && depth == 0
		case *ast.TypeAssertExpr:
			return nil, depth == 0
		case *ast.AssignStmt:
			return classifyAssign(f, p, node, depth)
		case *ast.IncDecStmt:
			return nil, false
		case *ast.RangeStmt:
			// Ranging reads elements as copies; element stores that
			// could leak the object are separate use sites.
			return nil, false
		case *ast.ValueSpec:
			return classifyValueSpec(f, p, node, depth)
		case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.CaseClause,
			*ast.ExprStmt, *ast.BlockStmt, *ast.LabeledStmt:
			return nil, false // condition/statement position: value inspected, not kept
		default:
			return nil, true
		}
	}
}

// classifyAssign decides a use appearing directly under an assignment:
// on the left it is a store target (writing into the object — benign
// for the object's own escape); on the right it either defines a new
// trackable version (a plain 1:1 copy) or lands in memory the walk
// cannot follow (escape).
func classifyAssign(f *ssaFunc, as *ast.AssignStmt, node ast.Node, depth int) ([]*ssaVal, bool) {
	for _, l := range as.Lhs {
		if ast.Node(l) == node {
			return nil, false // store into the object (or op-assign of a scalar)
		}
	}
	for i, r := range as.Rhs {
		if ast.Node(r) != node {
			continue
		}
		if depth > 0 {
			return nil, false // a loaded component is stored, not the pointer
		}
		if len(as.Lhs) != len(as.Rhs) {
			return nil, true
		}
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return nil, false
			}
			if dv := f.defVal[lhs]; dv != nil {
				return []*ssaVal{dv}, false // tracked copy
			}
			return nil, true // non-SSA variable: lost track
		default:
			return nil, true // stored through memory
		}
	}
	return nil, true
}

// classifyValueSpec is classifyAssign for `var x = e` declarations.
func classifyValueSpec(f *ssaFunc, vs *ast.ValueSpec, node ast.Node, depth int) ([]*ssaVal, bool) {
	for i, v := range vs.Values {
		if ast.Node(v) != node {
			continue
		}
		if depth > 0 {
			return nil, false
		}
		if len(vs.Names) != len(vs.Values) {
			return nil, true
		}
		name := vs.Names[i]
		if name.Name == "_" {
			return nil, false
		}
		if dv := f.defVal[name]; dv != nil {
			return []*ssaVal{dv}, false
		}
		return nil, true
	}
	return nil, true
}
