// Package pg is the unified product-graph runtime (Section 6.2): every
// language in the paper's tower — RPQ, 2RPQ, ℓ-RPQ, dl-RPQ, and the
// conjunctive closures — is evaluated by search over a product of the graph
// with an automaton, and this package implements that search exactly once.
// The evaluator packages (internal/eval, twoway, lrpq, dlrpq, crpq) are
// thin compilers: each translates its formalism's automaton into a Machine
// (or, for the register-automaton search of dlrpq, borrows the shared
// guard resolution and budget Ticker) and runs the Kernel.
//
// The runtime owns the cross-cutting concerns that PRs 1 and 2 had to
// thread through five packages by hand: label-ID guard resolution against
// the graph's interned label index, the frontier/BFS fixpoint loop,
// amortized Meter/Budget cancellation checks, parallel per-source fan-out
// with deterministic index-ordered delivery, witness-reconstruction hooks,
// and runtime counters. Future cross-cutting work (sharding, tracing, new
// languages) lands here once.
package pg

import (
	"graphquery/internal/automata"
	"graphquery/internal/graph"
)

// ResolvedGuard is one transition guard resolved against a concrete
// graph's interned label numbering — the positive/co-finite split that was
// previously copy-pasted across eval, twoway, and dlrpq. Positive guards
// carry the dense label IDs they match, so the kernel intersects them with
// the per-label CSR adjacency; co-finite (negated) guards keep the
// symbolic form and filter a dense scan.
type ResolvedGuard struct {
	LabelIDs []int          // label IDs matched by a positive guard
	Negated  bool           // co-finite guard: scan dense lists, filter by Guard
	Guard    automata.Guard // the symbolic guard (used by negated and dense scans)
}

// Resolve intersects a guard with g's label alphabet. ok is false when a
// positive guard mentions no label present in g — such a transition can
// never fire on g and should be dropped by the caller.
func Resolve(g *graph.Graph, gd automata.Guard) (ResolvedGuard, bool) {
	rg := ResolvedGuard{Negated: gd.Negated, Guard: gd}
	if gd.Negated {
		return rg, true
	}
	for _, lab := range gd.Labels {
		if id, ok := g.LabelID(lab); ok {
			rg.LabelIDs = append(rg.LabelIDs, id)
		}
	}
	return rg, len(rg.LabelIDs) > 0
}

// OutEdges visits the out-edges of node matching the guard: positive
// guards probe the per-label CSR index, co-finite guards filter the dense
// list. Edge order is per-label ascending (positive) or globally ascending
// (negated) — exactly the orders the pre-unification evaluators produced.
func (rg *ResolvedGuard) OutEdges(g *graph.Graph, node int, visit func(ei int)) {
	if rg.Negated {
		for _, ei := range g.Out(node) {
			if rg.Guard.Matches(g.Edge(ei).Label) {
				visit(ei)
			}
		}
		return
	}
	for _, lid := range rg.LabelIDs {
		for _, ei := range g.OutWithLabel(node, lid) {
			visit(ei)
		}
	}
}

// InEdges is OutEdges over incoming edges.
func (rg *ResolvedGuard) InEdges(g *graph.Graph, node int, visit func(ei int)) {
	if rg.Negated {
		for _, ei := range g.In(node) {
			if rg.Guard.Matches(g.Edge(ei).Label) {
				visit(ei)
			}
		}
		return
	}
	for _, lid := range rg.LabelIDs {
		for _, ei := range g.InWithLabel(node, lid) {
			visit(ei)
		}
	}
}

// Edges visits every edge of g matching the guard, in per-label ascending
// order for positive guards and globally ascending order for co-finite
// ones.
func (rg *ResolvedGuard) Edges(g *graph.Graph, visit func(ei int)) {
	if rg.Negated {
		for ei := 0; ei < g.NumEdges(); ei++ {
			if g.EdgeAlive(ei) && rg.Guard.Matches(g.Edge(ei).Label) {
				visit(ei)
			}
		}
		return
	}
	for _, lid := range rg.LabelIDs {
		for _, ei := range g.EdgesWithLabelID(lid) {
			visit(ei)
		}
	}
}

// Trans is one product-graph transition rule: on a graph edge matching the
// guard, move the automaton to state To. Back gives two-way semantics
// (Section 3.1.3): the edge is traversed target→source, so the kernel
// scans incoming instead of outgoing adjacency.
type Trans struct {
	To   int
	Back bool
	ResolvedGuard
}

// Semantics is what a language must provide to run on the kernel: a
// finite state space with start and accepting states and, per state, the
// transition rules already resolved against the target graph. The
// interface is consulted once at Kernel construction (the kernel snapshots
// it into flat slices), so implementations may compute transitions lazily
// without hot-loop cost. Implementations must be immutable once a Kernel
// is built over them.
//
// Instantiations across the tower: eval compiles NFAs forward (FromNFA)
// and reversed (FromNFABackward); twoway compiles TNFAs with Back flags;
// lrpq erases variable annotations and compiles the underlying NFA; crpq
// instantiates one forward machine per atom; dlrpq's register-automaton
// configurations are infinite-state and run their own search, borrowing
// ResolvedGuard and Ticker instead.
type Semantics interface {
	// NumStates returns |Q|.
	NumStates() int
	// Starts returns the initial states (one for forward automata, the
	// accepting set for reversed ones).
	Starts() []int
	// Accepting reports whether q ∈ F.
	Accepting(q int) bool
	// Transitions returns q's outgoing transition rules. The returned
	// slice must not be modified.
	Transitions(q int) []Trans
}

// Machine is the standard Semantics implementation: a graph-resolved
// automaton in flat slices. Evaluator packages build one per (graph,
// automaton) pair — via FromNFA/FromNFABackward for plain NFAs, or by hand
// (NewMachine/Add) for formalisms with extra transition structure like the
// two-way Back flag.
type Machine struct {
	numStates int
	starts    []int
	accept    []bool
	trans     [][]Trans
}

// NewMachine returns an empty machine with the given state count and
// start states.
func NewMachine(numStates int, starts ...int) *Machine {
	return &Machine{
		numStates: numStates,
		starts:    starts,
		accept:    make([]bool, numStates),
		trans:     make([][]Trans, numStates),
	}
}

// SetAccept marks q accepting.
func (m *Machine) SetAccept(q int) { m.accept[q] = true }

// Add appends a transition rule to state from, preserving insertion order
// (the tie-break order evaluators rely on).
func (m *Machine) Add(from int, t Trans) { m.trans[from] = append(m.trans[from], t) }

// NumStates implements Semantics.
func (m *Machine) NumStates() int { return m.numStates }

// Starts implements Semantics.
func (m *Machine) Starts() []int { return m.starts }

// Accepting implements Semantics.
func (m *Machine) Accepting(q int) bool { return m.accept[q] }

// Transitions implements Semantics.
func (m *Machine) Transitions(q int) []Trans { return m.trans[q] }

// FromNFA resolves an ε-free NFA against g into a forward machine:
// transitions follow edges source→target. Transitions whose positive guard
// matches no label of g are dropped.
func FromNFA(g *graph.Graph, a *automata.NFA) *Machine {
	m := NewMachine(a.NumStates, a.Start)
	resolve := newResolver(g)
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			m.SetAccept(q)
		}
		// Exact-capacity slice: Glushkov automata carry Θ(|Q|²)
		// transitions, so repeated append growth dominates cold compiles.
		m.trans[q] = make([]Trans, 0, len(a.Trans[q]))
		for _, t := range a.Trans[q] {
			rg, ok := resolve(t.Guard)
			if !ok {
				continue
			}
			m.Add(q, Trans{To: t.To, ResolvedGuard: rg})
		}
	}
	return m
}

// FromNFABackward resolves a into the reversed machine: it starts from a's
// accepting states, runs every transition in reverse over incoming edges
// (Back = true), and accepts at a's start state. A sweep from node v then
// finds exactly the sources u with (u, v) in the forward semantics — the
// planner picks this direction when the query's final labels are the
// selective ones.
func FromNFABackward(g *graph.Graph, a *automata.NFA) *Machine {
	var starts []int
	counts := make([]int, a.NumStates)
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			starts = append(starts, q)
		}
		for _, t := range a.Trans[q] {
			counts[t.To]++
		}
	}
	m := NewMachine(a.NumStates, starts...)
	m.SetAccept(a.Start)
	resolve := newResolver(g)
	for q := 0; q < a.NumStates; q++ {
		m.trans[q] = make([]Trans, 0, counts[q])
	}
	for q := 0; q < a.NumStates; q++ {
		for _, t := range a.Trans[q] {
			rg, ok := resolve(t.Guard)
			if !ok {
				continue
			}
			m.Add(t.To, Trans{To: q, Back: true, ResolvedGuard: rg})
		}
	}
	return m
}

// newResolver returns a Resolve memoized over single-label positive
// guards — the overwhelmingly common case, repeated across the Θ(|Q|²)
// transitions of a Glushkov automaton. The cached ResolvedGuard (and its
// LabelIDs slice) is shared across transitions; both are read-only after
// construction.
func newResolver(g *graph.Graph) func(automata.Guard) (ResolvedGuard, bool) {
	cache := make(map[string]ResolvedGuard)
	return func(gd automata.Guard) (ResolvedGuard, bool) {
		if gd.Negated || len(gd.Labels) != 1 {
			return Resolve(g, gd)
		}
		if rg, ok := cache[gd.Labels[0]]; ok {
			return rg, true
		}
		rg, ok := Resolve(g, gd)
		if ok {
			cache[gd.Labels[0]] = rg
		}
		return rg, ok
	}
}
