package analysis

import (
	"go/ast"
	"go/token"
)

// cfg is a per-function control-flow graph: basic blocks of
// straight-line statements joined by successor edges. It is the
// substrate of the SSA form (ssa.go), over which every value-sensitive
// analyzer propagates its facts.
//
// The builder is deliberately compact: composite statements are
// desugared just enough for forward dataflow (branch statements split
// blocks, loops get back edges, dead code after return/branch lands in
// unreachable blocks). goto is handled conservatively by terminating
// the block without an edge — the tree has no gotos, and a missing edge
// only loses precision, never soundness, for the may-analyses built on
// top.
type cfg struct {
	blocks []*cfgBlock
	// stmtBlock locates the block holding each recorded statement, for
	// enclosingSite queries. Composite statements (if/for/switch) are
	// recorded at their branch point.
	stmtBlock map[ast.Stmt]int
	// conds records the branch condition governing each two-way split
	// block (if/for headers), so dominance-based analyzers can reason
	// about which side of the test a dominated block sits on.
	conds map[int]*condInfo
	// extraUses holds expressions evaluated at a block's end that are
	// not part of any recorded statement (switch tags, case patterns):
	// the SSA renamer resolves their identifier uses against the block.
	extraUses map[int][]ast.Expr
	// predCache memoizes predecessors() (nil until first call).
	predCache [][]int
}

// condInfo is one conditional split: cond is the controlling boolean
// expression, trueB/falseB the successor blocks entered when it holds
// or fails. For a `for` header, trueB is the loop body and falseB the
// exit block.
type condInfo struct {
	cond          ast.Expr
	trueB, falseB int
}

// predecessors returns (computing and memoizing) the predecessor lists
// of every block.
func (g *cfg) predecessors() [][]int {
	if g.predCache != nil {
		return g.predCache
	}
	preds := make([][]int, len(g.blocks))
	for i, b := range g.blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], i)
		}
	}
	g.predCache = preds
	return preds
}

// condAt returns the branch condition split at block bi, or nil.
func (g *cfg) condAt(bi int) *condInfo { return g.conds[bi] }

// cfgBlock is one straight-line run of statements.
type cfgBlock struct {
	stmts []ast.Stmt
	succs []int
}

// cfgBuilder carries the construction state.
type cfgBuilder struct {
	g *cfg
	// cur is the index of the block under construction; -1 after a
	// terminating statement (return, branch) until a new block starts.
	cur int
	// breakTo / continueTo are the enclosing loop/switch exit stacks.
	breakTo    []int
	continueTo []int
	// labels maps a label name to its loop's (break, continue) targets.
	labelBreak    map[string]int
	labelContinue map[string]int
	// pendingLabel names the label attached to the statement about to
	// be lowered, so pushLoop/pushSwitch can register its targets.
	pendingLabel string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{
		g: &cfg{
			stmtBlock: make(map[ast.Stmt]int),
			conds:     make(map[int]*condInfo),
			extraUses: make(map[int][]ast.Expr),
		},
		labelBreak:    make(map[string]int),
		labelContinue: make(map[string]int),
	}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	return b.g
}

func (b *cfgBuilder) newBlock() int {
	b.g.blocks = append(b.g.blocks, &cfgBlock{})
	return len(b.g.blocks) - 1
}

func (b *cfgBuilder) edge(from, to int) {
	if from < 0 {
		return
	}
	b.g.blocks[from].succs = append(b.g.blocks[from].succs, to)
}

// startBlock begins a fresh block and makes it current, linking from
// the previous current block when one is live.
func (b *cfgBuilder) startBlock() int {
	nb := b.newBlock()
	b.edge(b.cur, nb)
	b.cur = nb
	return nb
}

// record appends a plain statement to the current block.
func (b *cfgBuilder) record(s ast.Stmt) {
	if b.cur < 0 {
		b.cur = b.newBlock() // unreachable successor block, no preds
	}
	b.g.blocks[b.cur].stmts = append(b.g.blocks[b.cur].stmts, s)
	b.g.stmtBlock[s] = b.cur
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if b.cur < 0 {
			b.cur = b.newBlock()
		}
		b.g.stmtBlock[s] = b.cur
		cond := b.cur
		thenB := b.newBlock()
		b.edge(cond, thenB)
		b.cur = thenB
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd = -1
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after := b.newBlock()
		if s.Else == nil {
			b.edge(cond, after)
			b.g.conds[cond] = &condInfo{cond: s.Cond, trueB: thenB, falseB: after}
		} else {
			// succs of cond are [thenB, elseB] in lowering order.
			b.g.conds[cond] = &condInfo{cond: s.Cond, trueB: thenB, falseB: b.g.blocks[cond].succs[1]}
		}
		b.edge(thenEnd, after)
		b.edge(elseEnd, after)
		b.cur = after
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		header := b.startBlock()
		b.g.stmtBlock[s] = header
		after := b.newBlock()
		b.edge(header, after) // cond may be false (or loop may break)
		body := b.newBlock()
		b.edge(header, body)
		if s.Cond != nil {
			b.g.conds[header] = &condInfo{cond: s.Cond, trueB: body, falseB: after}
		}
		post := b.newBlock()
		b.pushLoop(s, after, post)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, header)
		b.cur = after
	case *ast.RangeStmt:
		header := b.startBlock()
		// The range statement itself sits in the header so transfer
		// functions see the key/value assignments once per entry.
		b.record(s)
		after := b.newBlock()
		b.edge(header, after)
		body := b.newBlock()
		b.edge(header, body)
		b.pushLoop(s, after, header)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, header)
		b.popLoop()
		b.cur = after
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.compound(s)
	case *ast.ReturnStmt:
		b.record(s)
		b.cur = -1
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.LabeledStmt:
		b.labeled(s)
	case *ast.EmptyStmt:
	default:
		// Assign, Decl, IncDec, Expr, Send, Defer, Go: straight-line.
		b.record(s)
	}
}

// compound lowers switch/type-switch/select: every clause branches from
// the dispatch block and falls through to the common exit.
func (b *cfgBuilder) compound(s ast.Stmt) {
	var init, assign ast.Stmt
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init = s.Init
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		init = s.Init
		assign = s.Assign
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	if init != nil {
		b.stmt(init)
	}
	if assign != nil {
		b.stmt(assign)
	}
	if b.cur < 0 {
		b.cur = b.newBlock()
	}
	b.g.stmtBlock[s] = b.cur
	dispatch := b.cur
	if sw, ok := s.(*ast.SwitchStmt); ok && sw.Tag != nil {
		b.g.extraUses[dispatch] = append(b.g.extraUses[dispatch], sw.Tag)
	}
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok {
			b.g.extraUses[dispatch] = append(b.g.extraUses[dispatch], cc.List...)
		}
	}
	after := b.newBlock()
	b.pushSwitch(after)
	hasDefault := false
	var prevBody int = -1
	for _, c := range clauses {
		body := b.newBlock()
		b.edge(dispatch, body)
		// A fallthrough in the previous clause continues here.
		if prevBody >= 0 {
			if fb, ok := b.fallsThrough(prevBody); ok {
				b.edge(fb, body)
			}
		}
		b.cur = body
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			b.stmtList(c.Body)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				b.stmt(c.Comm)
			}
			b.stmtList(c.Body)
		}
		b.edge(b.cur, after)
		prevBody = body
	}
	b.popSwitch()
	if !hasDefault || len(clauses) == 0 {
		b.edge(dispatch, after)
	}
	b.cur = after
}

// fallsThrough reports whether a clause's final live block ended with a
// fallthrough, returning that block. The builder keeps fallthrough
// blocks live (cur is reset per clause), so detecting the statement in
// the block suffices.
func (b *cfgBuilder) fallsThrough(block int) (int, bool) {
	stmts := b.g.blocks[block].stmts
	if n := len(stmts); n > 0 {
		if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			return block, true
		}
	}
	return -1, false
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.record(s)
	switch s.Tok {
	case token.BREAK:
		target := -1
		if s.Label != nil {
			target = b.labelBreak[s.Label.Name]
		} else if n := len(b.breakTo); n > 0 {
			target = b.breakTo[n-1]
		}
		if target >= 0 {
			b.edge(b.cur, target)
		}
		b.cur = -1
	case token.CONTINUE:
		target := -1
		if s.Label != nil {
			target = b.labelContinue[s.Label.Name]
		} else if n := len(b.continueTo); n > 0 {
			target = b.continueTo[n-1]
		}
		if target >= 0 {
			b.edge(b.cur, target)
		}
		b.cur = -1
	case token.GOTO:
		// Conservative: terminate without an edge (no gotos in tree).
		b.cur = -1
	case token.FALLTHROUGH:
		// The edge is wired by the enclosing switch lowering; keep the
		// block live so compound() can find the statement.
	}
}

// labeled wires a label's break/continue targets before lowering the
// labeled statement itself.
func (b *cfgBuilder) labeled(s *ast.LabeledStmt) {
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Pre-create the after block so labeled breaks can target it:
		// the lowering functions look the targets up by label name via
		// pendingLabel.
		b.pendingLabel = s.Label.Name
		b.stmt(inner)
		b.pendingLabel = ""
	default:
		b.stmt(s.Stmt)
	}
}

// pushLoop registers loop break/continue targets (and the pending
// label's, when the loop is labeled).
func (b *cfgBuilder) pushLoop(_ ast.Stmt, breakTarget, continueTarget int) {
	b.breakTo = append(b.breakTo, breakTarget)
	b.continueTo = append(b.continueTo, continueTarget)
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = breakTarget
		b.labelContinue[b.pendingLabel] = continueTarget
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

func (b *cfgBuilder) pushSwitch(breakTarget int) {
	b.breakTo = append(b.breakTo, breakTarget)
	b.continueTo = append(b.continueTo, -2) // sentinel: continue skips switches
	if b.pendingLabel != "" {
		b.labelBreak[b.pendingLabel] = breakTarget
		b.pendingLabel = ""
	}
}

func (b *cfgBuilder) popSwitch() {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}
