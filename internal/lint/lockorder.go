package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderRule builds the module-wide lock-acquisition graph and
// reports the shapes that deadlock: cycles between lock classes (thread
// one acquires store.mu then job.mu while thread two does the reverse),
// re-acquisition of a held mutex (sync locks are not reentrant), and
// RLock→Lock upgrades on the same RWMutex (the writer waits for the
// reader that is waiting to become the writer).
//
// A lock class is a mutex's declaration site — "serve.store.mu" for a
// field, "serve.shutdownMu" for a package-level var — so every instance
// of a type shares a class. Nodes are classes; there is an edge A→B when
// some function acquires a B with an A held, either directly or through
// any chain of statically resolvable calls (the transitive closure is a
// fixpoint over the module call graph). Acquisitions inside `go`
// statements start from an empty lock set — the spawner's locks impose
// no ordering on the goroutine — and do not propagate to the spawner's
// transitive set.
//
// Known blind spots, shared with every static lock analysis at this
// scale: dynamic dispatch (interface calls, stored closures such as
// sweep's observer callbacks) and mutexes aliased through pointer fields
// (sweep.batch.mu points at Engine.eventMu) do not contribute edges.
// The rule is a ModuleRule: cross-package chains like
// fabric.Coordinator.mu → obs.metricFamily.mu are exactly the edges a
// per-package analysis would miss.
type LockOrderRule struct {
	// Packages selects where acquisitions are collected (matchPackage
	// semantics; empty selects every package).
	Packages []string
}

// NewLockOrderRule returns the project configuration: the whole module.
func NewLockOrderRule() *LockOrderRule { return &LockOrderRule{} }

// Name implements Rule.
func (r *LockOrderRule) Name() string { return "lockorder" }

// Doc implements Rule.
func (r *LockOrderRule) Doc() string {
	return "the module-wide lock-acquisition graph must be acyclic, with no re-acquisition or RLock->Lock upgrade"
}

// Check implements Rule; lockorder only runs module-wide.
func (r *LockOrderRule) Check(p *Package) []Finding { return nil }

// loAcq is one direct lock acquisition with its lexical context.
type loAcq struct {
	class   string              // acquired lock class ("" for locals)
	expr    string              // acquired mutex expression
	mode    byte                // 'r' or 'w'
	held    map[string]heldLock // expr -> lock held across the acquisition
	pos     token.Pos
	fn      string // enclosing function label, for messages
	pkg     *Package
	spawned bool // inside a `go` statement's body
}

// loCall is one statically resolvable call with the locks held at the
// call site.
type loCall struct {
	callee  *types.Func
	held    map[string]heldLock
	pos     token.Pos
	fn      string
	pkg     *Package
	spawned bool
}

// loFunc collects one function's acquisitions and calls.
type loFunc struct {
	fn    *types.Func
	acqs  []loAcq
	calls []loCall
}

// CheckModule implements ModuleRule.
func (r *LockOrderRule) CheckModule(pkgs []*Package) []Finding {
	// Phase 1: per-function acquisition and call records.
	recs := map[*types.Func]*loFunc{}
	var order []*loFunc
	for _, p := range pkgs {
		if !matchPackage(p.Path, r.Packages) {
			continue
		}
		for _, fd := range funcDecls(p) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			rec := &loFunc{fn: fn}
			label := funcLabel(fn)
			p := p
			w := newLockTracker(p)
			w.onAcquire = func(w *lockTracker, expr string, l heldLock, pos token.Pos) {
				rec.acqs = append(rec.acqs, loAcq{
					class: l.class, expr: expr, mode: l.mode,
					held: copyHeld(w.held), pos: pos, fn: label, pkg: p,
					spawned: w.inGo > 0,
				})
			}
			w.onCall = func(w *lockTracker, call *ast.CallExpr) {
				to := callee(p, call)
				if to == nil {
					return
				}
				rec.calls = append(rec.calls, loCall{
					callee: to, held: copyHeld(w.held), pos: call.Pos(),
					fn: label, pkg: p, spawned: w.inGo > 0,
				})
			}
			w.walkFunc(fd.Body, entryHeldLocks(p, fd))
			recs[fn] = rec
			order = append(order, rec)
		}
	}

	// Phase 2: fixpoint of each function's transitively acquired classes.
	// Spawned acquisitions and calls are excluded: they happen on another
	// goroutine, after the spawner's frame may be gone.
	trans := map[*types.Func]map[string]bool{}
	for _, rec := range order {
		set := map[string]bool{}
		for _, a := range rec.acqs {
			if a.class != "" && !a.spawned {
				set[a.class] = true
			}
		}
		trans[rec.fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, rec := range order {
			set := trans[rec.fn]
			for _, c := range rec.calls {
				if c.spawned {
					continue
				}
				for cls := range trans[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: edges and direct findings.
	type loEdge struct{ from, to string }
	type witness struct {
		pos token.Position
		via string
	}
	edges := map[loEdge]witness{}
	addEdge := func(from, to string, pos token.Position, via string) {
		e := loEdge{from, to}
		wit, ok := edges[e]
		if !ok || posLess(pos, wit.pos) {
			edges[e] = witness{pos, via}
		}
	}
	var out []Finding
	for _, rec := range order {
		for _, a := range rec.acqs {
			heldKeys := make([]string, 0, len(a.held))
			for k := range a.held {
				heldKeys = append(heldKeys, k)
			}
			sort.Strings(heldKeys)
			for _, heldExpr := range heldKeys {
				hl := a.held[heldExpr]
				if hl.class == "" {
					// A local mutex cannot order against anything
					// module-wide, but re-acquiring the same local is
					// still a self-deadlock.
					if heldExpr == a.expr {
						out = append(out, selfDeadlock(a, hl))
					}
					continue
				}
				if hl.class == a.class && heldExpr == a.expr {
					out = append(out, selfDeadlock(a, hl))
					continue
				}
				if a.class == "" {
					continue
				}
				addEdge(hl.class, a.class, a.pkg.Fset.Position(a.pos), a.fn)
			}
		}
		for _, c := range rec.calls {
			acquired := trans[c.callee]
			if len(acquired) == 0 {
				continue
			}
			classes := make([]string, 0, len(acquired))
			for cls := range acquired {
				classes = append(classes, cls)
			}
			sort.Strings(classes)
			for _, hl := range c.held {
				if hl.class == "" {
					continue
				}
				for _, cls := range classes {
					addEdge(hl.class, cls, c.pkg.Fset.Position(c.pos), c.fn+" -> "+funcLabel(c.callee))
				}
			}
		}
	}

	// Phase 4: cycles. Self-loops (same class nested, via a second
	// instance or a call chain) and multi-class strongly connected
	// components are both deadlock shapes.
	nodes := map[string]bool{}
	adj := map[string][]string{}
	sortedEdges := make([]loEdge, 0, len(edges))
	for e := range edges {
		sortedEdges = append(sortedEdges, e)
	}
	sort.Slice(sortedEdges, func(i, j int) bool {
		if sortedEdges[i].from != sortedEdges[j].from {
			return sortedEdges[i].from < sortedEdges[j].from
		}
		return sortedEdges[i].to < sortedEdges[j].to
	})
	for _, e := range sortedEdges {
		if e.from == e.to {
			// Same-class nesting (a second instance, directly or through
			// a call chain) is its own finding, not a graph cycle.
			wit := edges[e]
			out = append(out, Finding{
				Pos:  wit.pos,
				Rule: r.Name(),
				Msg: fmt.Sprintf("lock class %s acquired while another %s is already held (in %s): same-class nesting deadlocks unless instances are globally ordered",
					e.from, e.to, wit.via),
			})
			continue
		}
		nodes[e.from], nodes[e.to] = true, true
		adj[e.from] = append(adj[e.from], e.to)
	}
	for n := range adj {
		sort.Strings(adj[n])
	}
	for _, scc := range tarjanSCC(nodes, adj) {
		if len(scc) == 1 {
			continue
		}
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var parts []string
		first := token.Position{}
		for _, from := range scc {
			for _, to := range adj[from] {
				if !inSCC[to] {
					continue
				}
				wit := edges[loEdge{from, to}]
				parts = append(parts, fmt.Sprintf("%s -> %s (%s:%d in %s)", from, to, wit.pos.Filename, wit.pos.Line, wit.via))
				if first.Filename == "" || posLess(wit.pos, first) {
					first = wit.pos
				}
			}
		}
		out = append(out, Finding{
			Pos:  first,
			Rule: r.Name(),
			Msg: fmt.Sprintf("lock-order cycle among {%s}: %s; acquire these locks in one global order",
				strings.Join(scc, ", "), strings.Join(parts, "; ")),
		})
	}
	return out
}

// selfDeadlock renders a same-expression re-acquisition finding.
func selfDeadlock(a loAcq, held heldLock) Finding {
	msg := fmt.Sprintf("%s re-acquired while already held in %s: sync mutexes are not reentrant (self-deadlock)", a.expr, a.fn)
	if held.mode == 'r' && a.mode == 'w' {
		msg = fmt.Sprintf("Lock of %s while holding its RLock in %s: RLock->Lock upgrades deadlock sync.RWMutex", a.expr, a.fn)
	}
	return Finding{Pos: a.pkg.Fset.Position(a.pos), Rule: "lockorder", Msg: msg}
}

// copyHeld snapshots a held map (the tracker mutates it in place).
func copyHeld(held map[string]heldLock) map[string]heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// posLess orders positions by file, line, column.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// tarjanSCC returns the strongly connected components of the class
// graph, in a deterministic order (roots visited in sorted node order).
func tarjanSCC(nodes map[string]bool, adj map[string][]string) [][]string {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			// Single nodes only matter when they self-loop; keep them
			// all and let the caller filter on edge existence.
			sccs = append(sccs, scc)
		}
	}
	for _, n := range sorted {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}
