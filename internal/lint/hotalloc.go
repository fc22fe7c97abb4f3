package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// HotAllocRule enforces the simulator's zero-allocation contract: in the
// steady state, Machine.Cycle must not allocate (the alloc regression
// test pins AllocsPerRun to zero, and the cycle benchmarks report 0
// B/op). The rule builds the intra-package static call graph rooted at
// the hot-loop entry point and flags every `append` and `make` reachable
// from it. Allocation on the hot path is not always wrong — amortised
// high-water growth of a recycled buffer is the standard idiom here —
// but it must be deliberate, so every surviving site carries an
//
//	//smtlint:ignore hotalloc <why this append cannot grow unboundedly>
//
// justification. A new append introduced into the cycle path without one
// fails the build instead of silently costing an allocation per cycle.
//
// Only calls resolved to package-level functions and methods of the same
// package are traversed; cross-package calls and dynamic (interface)
// dispatch are outside the graph. Cold diagnostic entry points listed in
// Cold — the invariant checkers and the telemetry recording path, which
// run with checks or recording explicitly enabled and are outside the
// steady-state contract — are neither traversed nor scanned.
type HotAllocRule struct {
	// Packages selects where the rule applies (matchPackage semantics).
	Packages []string
	// Roots identify the hot-loop entry points; the walk starts from
	// every root, and a function reached from any of them is on the hot
	// path. A root that matches no function in a selected package is a
	// finding: a renamed or deleted entry point would otherwise leave
	// its loop silently unchecked.
	Roots []FuncRef
	// Cold lists function (or method) names excluded from the walk.
	Cold []string
}

// FuncRef names a package-level method: the bare receiver type name and
// the method name.
type FuncRef struct {
	Recv string
	Name string
}

// NewHotAllocRule returns the project configuration: the cycle path of
// internal/pipeline, rooted at the single-machine loop (Machine.Cycle)
// and the lock-step batch loop (MachineBatch.CycleFirstN — the refill
// path is amortised per epoch and deliberately outside the contract),
// with the invariant-check and telemetry-recording paths cold.
func NewHotAllocRule() *HotAllocRule {
	return &HotAllocRule{
		Packages: []string{"internal/pipeline"},
		Roots: []FuncRef{
			{Recv: "Machine", Name: "Cycle"},
			{Recv: "MachineBatch", Name: "CycleFirstN"},
		},
		Cold: []string{
			"checkCycle", "checkCommit", "checkDrain", "CheckInvariants",
			"liveSlots", "record",
		},
	}
}

// Name implements Rule.
func (r *HotAllocRule) Name() string { return "hotalloc" }

// Doc implements Rule.
func (r *HotAllocRule) Doc() string {
	return "append/make reachable from the hot-loop root must carry an //smtlint:ignore hotalloc justification"
}

// recvTypeName returns the bare type name of a method receiver, or ""
// for plain functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcLabel renders a function for findings: "Recv.Name" for methods,
// "Name" otherwise.
func funcLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// callee resolves the static callee of a call to a declared function in
// any package. Builtins, interface methods, and function values resolve
// to nil.
func callee(p *Package, call *ast.CallExpr) *types.Func {
	e := call.Fun
	for {
		paren, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = paren.X
	}
	var obj types.Object
	switch fun := e.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// Check implements Rule.
func (r *HotAllocRule) Check(p *Package) []Finding {
	if !matchPackage(p.Path, r.Packages) {
		return nil
	}
	cold := map[string]bool{}
	for _, name := range r.Cold {
		cold[name] = true
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	var roots []*types.Func
	found := make([]bool, len(r.Roots))
	for _, fd := range funcDecls(p) {
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		decls[fn] = fd
		for i, root := range r.Roots {
			if fd.Name.Name == root.Name && recvTypeName(fd) == root.Recv {
				roots = append(roots, fn)
				found[i] = true
			}
		}
	}
	var out []Finding
	for i, root := range r.Roots {
		if !found[i] {
			out = append(out, Finding{
				Pos:  p.Fset.Position(p.Files[0].Name.Pos()),
				Rule: r.Name(),
				Msg: fmt.Sprintf("hot-loop root %s.%s matches no function in %s; re-root the rule at the loop's current entry point",
					root.Recv, root.Name, p.Path),
			})
		}
	}

	// Breadth-first walk of the intra-package call graph from every
	// root. parent records the discovery edge so findings can show the
	// chain back to a root; a function shared between roots keeps its
	// first discovery chain.
	parent := map[*types.Func]*types.Func{}
	reached := append([]*types.Func(nil), roots...)
	seen := map[*types.Func]bool{}
	for _, root := range roots {
		seen[root] = true
	}
	for i := 0; i < len(reached); i++ {
		caller := reached[i]
		ast.Inspect(decls[caller].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(p, call)
			if fn == nil || fn.Pkg() != p.Types || seen[fn] || cold[fn.Name()] {
				return true
			}
			if _, hasBody := decls[fn]; !hasBody {
				return true
			}
			seen[fn] = true
			parent[fn] = caller
			reached = append(reached, fn)
			return true
		})
	}

	chain := func(fn *types.Func) string {
		var parts []string
		for f := fn; f != nil; f = parent[f] {
			parts = append(parts, funcLabel(f))
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		return strings.Join(parts, " -> ")
	}

	for _, fn := range reached {
		path := chain(fn)
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := p.Info.Uses[id].(*types.Builtin)
			if !ok || (b.Name() != "append" && b.Name() != "make") {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(call.Pos()),
				Rule: r.Name(),
				Msg: fmt.Sprintf("%s on the hot path (%s) allocates; recycle a pre-sized buffer or justify with //smtlint:ignore hotalloc <reason>",
					b.Name(), path),
			})
			return true
		})
	}
	return out
}
