package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DeadCodeRule reports every declared function and method that no
// non-test package of the module refers to. A reference is any use the
// type checker records (a call, a method value, a function value), taken
// at its generic origin, so no call graph is needed. The module includes
// its commands, examples and benchmarks, so those count as callers;
// _test.go files do not, because code only tests reach is code the
// program does not need.
//
// A method whose signature matches a method of some interface type is
// treated as used: it can be reached through an interface value, which
// the type checker resolves to the interface method rather than the
// concrete one. The interfaces considered are those declared in the
// module, in every package it imports transitively, and the universe's
// error. main and init are called by the runtime and are exempt.
type DeadCodeRule struct{}

// NewDeadCodeRule returns the project configuration.
func NewDeadCodeRule() *DeadCodeRule { return &DeadCodeRule{} }

// Name implements Rule.
func (r *DeadCodeRule) Name() string { return "deadcode" }

// Doc implements Rule.
func (r *DeadCodeRule) Doc() string {
	return "every function and method has a non-test reference in the module or implements an interface method"
}

// Check implements Rule; the analysis is module-wide (see CheckModule).
func (r *DeadCodeRule) Check(*Package) []Finding { return nil }

// CheckModule implements ModuleRule.
func (r *DeadCodeRule) CheckModule(pkgs []*Package) []Finding {
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	ifaces := interfaceMethods(pkgs)
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] {
					continue
				}
				if fd.Recv == nil && (fn.Name() == "main" || fn.Name() == "init") {
					continue
				}
				if fd.Recv != nil && ifaces.match(fn) {
					continue
				}
				out = append(out, Finding{
					Pos:  p.Fset.Position(fd.Name.Pos()),
					Rule: r.Name(),
					Msg: fmt.Sprintf("%s has no non-test reference in the module; delete it, or justify it with //smtlint:ignore deadcode <why>",
						funcLabel(fn)),
				})
			}
		}
	}
	return out
}

// methodSet maps a method name to the signatures interface types declare
// under that name.
type methodSet map[string][]*types.Signature

// interfaceMethods collects the methods of every interface type declared
// in pkgs (named or literal), of every named interface in the packages
// they import transitively, and of the universe's error.
func interfaceMethods(pkgs []*Package) methodSet {
	ms := methodSet{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ms[m.Name()] = append(ms[m.Name()], m.Type().(*types.Signature))
		}
	}
	add(types.Universe.Lookup("error").Type())

	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := p.Info.Types[lit]; ok {
						add(tv.Type)
					}
				}
				return true
			})
		}
	}
	return ms
}

// match reports whether fn's name and signature (receiver aside) match a
// collected interface method.
func (ms methodSet) match(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for _, m := range ms[fn.Name()] {
		if sig.Variadic() == m.Variadic() &&
			types.Identical(sig.Params(), m.Params()) &&
			types.Identical(sig.Results(), m.Results()) {
			return true
		}
	}
	return false
}
