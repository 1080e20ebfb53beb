package analysis

import (
	"go/types"
)

// devirt.go resolves dynamic interface-method calls by class-hierarchy
// analysis: the possible targets of iface.M() are the M methods of
// every concrete type declared in a root package that implements the
// interface. When every target is itself proven allocation-free —
// annotated //meccvet:hotpath or with a clean transitive closure — the
// dynamic edge is proven too, and hotpath stops demanding an allow
// for it. This is what lets the Morphable codec dispatch (weak/strong
// Codec fields populated from the experiment matrix) count as proven:
// the Codec implementer set is closed over {None, LineSECDED,
// WordSECDED, BCH}, all of whose methods the closure check clears.
//
// Soundness leans on two rules. First, the whole-module load: meccvet
// analyzes the full ./... root set, so every type the module declares
// is a root type. Second, only a closed interface is devirtualized:
// one that no type outside the roots can implement, because one of
// its methods is unexported from a root package or names a
// root-declared type in its signature (stdlib code can do neither).
// An open interface — exported methods over stdlib types only — could
// be implemented by a stdlib type nobody vetted, so its calls stay
// unproven. Dependencies come from export data, which omits
// unexported stdlib types, so the rule also keeps the proof
// independent of which stdlib types the loader happens to see.
// Generic instantiations are not enumerated.

// chaResult is the memoized outcome of devirtualizing one interface
// method.
type chaResult struct {
	// proven marks the edge allocation-free: the interface is closed,
	// its implementer set is non-empty, and every target method's
	// closure is clean.
	proven bool
	// targets are the concrete methods the call can reach.
	targets []*types.Func
}

// devirtualizedClean reports whether a dynamic call site can be proven
// allocation-free by devirtualization: the call must be an interface
// method invocation (func-value calls have no class hierarchy to
// enumerate) whose every possible concrete target is clean.
func (prog *Program) devirtualizedClean(caller *types.Func, cs CallSite) bool {
	if !cs.Dynamic {
		return false
	}
	fi := prog.funcs[caller]
	if fi == nil {
		return false
	}
	m, ok := calleeObjectIn(fi.Pkg.Info, cs.Call).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return false
	}
	return prog.cha(m).proven
}

// cha computes (memoizing) the devirtualization result for one
// interface method. Recursion through allocSummary terminates via that
// summary's own in-progress marker; a cycle participant reading the
// pre-registered unproven result stays conservative.
func (prog *Program) cha(m *types.Func) *chaResult {
	if r, ok := prog.chaFacts[m]; ok {
		return r
	}
	r := &chaResult{}
	prog.chaFacts[m] = r
	prog.indexRootTypes()
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok || !prog.closedInterface(iface) {
		return r
	}
	for _, T := range prog.universe {
		ptr := types.NewPointer(T)
		if !types.Implements(T, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		target, ok := obj.(*types.Func)
		if !ok {
			return r // implementer without a reachable method object
		}
		r.targets = append(r.targets, target)
	}
	if len(r.targets) == 0 {
		return r // no implementer in scope: nothing to prove against
	}
	for _, target := range r.targets {
		if prog.funcVerb(target, verbHotpath) {
			continue // proven at its own root
		}
		if prog.funcs[target] == nil {
			return r // promoted from outside the root set: cannot vet
		}
		if prog.allocSummary(target) != nil {
			return r
		}
	}
	r.proven = true
	return r
}

// closedInterface reports whether only root-declared types can
// implement the interface: some method is unexported from a root
// package, or names a root-declared type in its signature.
func (prog *Program) closedInterface(iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if !m.Exported() && prog.roots[m.Pkg()] || prog.namesRootType(m.Type()) {
			return true
		}
	}
	return false
}

// namesRootType reports whether a root-declared named type appears in
// t. TypeString calls the qualifier with the package of every named
// type it writes, type arguments and nested literals included.
func (prog *Program) namesRootType(t types.Type) bool {
	found := false
	types.TypeString(t, func(p *types.Package) string {
		found = found || prog.roots[p]
		return ""
	})
	return found
}

// indexRootTypes records (once) the root package set and every named
// non-interface type declared at package scope in it — the class
// hierarchy cha matches implementers against.
func (prog *Program) indexRootTypes() {
	if prog.roots != nil {
		return
	}
	prog.roots = make(map[*types.Package]bool, len(prog.Pkgs))
	for _, pkg := range prog.Pkgs {
		prog.roots[pkg.Types] = true
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			prog.universe = append(prog.universe, named)
		}
	}
}
