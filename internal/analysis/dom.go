package analysis

import "sort"

// dom.go computes the dominator tree and dominance frontiers over cfg
// basic blocks, using the Cooper–Harvey–Kennedy iterative algorithm ("A
// Simple, Fast Dominance Algorithm"). The SSA builder places phi nodes
// on the (iterated) dominance frontier; cyclewrap uses dominance to
// decide whether a guard condition necessarily holds at a subtraction.

// domTree is the dominance relation over a cfg.
type domTree struct {
	root int
	// idom is each block's immediate dominator; root maps to itself,
	// unreachable blocks to -1.
	idom []int
	// frontier is each block's dominance frontier, deduplicated and
	// sorted ascending.
	frontier [][]int
	// children lists each block's dominator-tree children ascending,
	// giving the deterministic DFS order the SSA renamer walks.
	children [][]int
}

// reachable reports whether the relation covers block b.
func (t *domTree) reachable(b int) bool {
	return b >= 0 && b < len(t.idom) && (t.idom[b] >= 0 || b == t.root)
}

// dominates reports whether a dominates b (reflexively): every path
// from the root to b passes through a. Unreachable blocks are
// dominated by nothing and dominate nothing.
func (t *domTree) dominates(a, b int) bool {
	if !t.reachable(a) || !t.reachable(b) {
		return false
	}
	for {
		if b == a {
			return true
		}
		if b == t.root {
			return false
		}
		b = t.idom[b]
	}
}

// dominators builds the forward dominator tree rooted at the entry
// block.
func (g *cfg) dominators() *domTree {
	n := len(g.blocks)
	succs := make([][]int, n)
	for i, b := range g.blocks {
		succs[i] = b.succs
	}
	return buildDomTree(n, 0, succs, g.predecessors())
}

// buildDomTree runs the iterative RPO dominance algorithm over an
// explicit graph.
func buildDomTree(n, root int, succs, preds [][]int) *domTree {
	// Postorder DFS from the root (iterative, to keep deep CFGs off the
	// call stack).
	pos := make([]int, n) // position in reverse postorder; -1 unreachable
	for i := range pos {
		pos[i] = -1
	}
	var order []int // postorder
	visited := make([]bool, n)
	type frame struct {
		b, next int
	}
	stack := []frame{{root, 0}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(succs[f.b]) {
			s := succs[f.b][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(order))
	for i, b := range order {
		rpo[len(order)-1-i] = b
		pos[b] = len(order) - 1 - i
	}

	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == root {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}

	// Dominance frontiers (only join points — blocks with >=2
	// reachable preds — contribute).
	frontier := make([][]int, n)
	for _, b := range rpo {
		live := 0
		for _, p := range preds[b] {
			if idom[p] >= 0 {
				live++
			}
		}
		if live < 2 {
			continue
		}
		for _, p := range preds[b] {
			if idom[p] < 0 {
				continue
			}
			for runner := p; runner != idom[b]; runner = idom[runner] {
				frontier[runner] = append(frontier[runner], b)
			}
		}
	}
	for i := range frontier {
		frontier[i] = dedupSorted(frontier[i])
	}

	children := make([][]int, n)
	for _, b := range rpo {
		if b == root {
			continue
		}
		children[idom[b]] = append(children[idom[b]], b)
	}
	for i := range children {
		sort.Ints(children[i])
	}
	return &domTree{root: root, idom: idom, frontier: frontier, children: children}
}

// dedupSorted sorts a small int slice and removes duplicates in place.
func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
