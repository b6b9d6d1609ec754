package eval

import (
	"sync"

	"graphquery/internal/automata"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Product is the product graph G× of an edge-labeled graph G and an NFA N_R
// (Section 6.2): nodes are pairs (u, q) ∈ N × Q, and each pair of a graph
// edge e and an automaton transition (q₁, a, q₂) with λ(e) = a yields the
// product edge ((src(e), q₁) → (tgt(e), q₂)).
//
// Product is a veneer over the unified product-graph runtime: construction
// compiles the NFA into a pg.Machine (guards resolved against the graph's
// interned label numbering) and all traversal — the reachability fixpoint,
// witness BFS, Succ expansion — runs on the shared pg.Kernel. The reversed
// kernel for backward plans is built lazily on first use. A Product is
// immutable after construction (the lazy field is a sync.Once) and safe
// for concurrent use.
type Product struct {
	G *graph.Graph
	A *automata.NFA

	kern     *pg.Kernel
	counters *pg.Counters

	backOnce sync.Once
	back     *pg.Kernel
}

// State is a product-graph node (u, q).
type State = pg.State

// Step is one product edge: the graph edge taken and the resulting state.
type Step = pg.Step

// Scratch holds the reusable buffers of repeated single-source
// reachability runs over one product; one scratch serves one goroutine.
type Scratch = pg.Scratch

// NewProduct pairs a graph with a compiled automaton, resolving every
// transition guard against the graph's label index.
func NewProduct(g *graph.Graph, a *automata.NFA) *Product {
	return NewProductInstrumented(g, a, nil)
}

// NewProductInstrumented is NewProduct with a runtime-counters sink (may
// be nil): engines attach their counters here so every sweep over the
// product is accounted in /v1/statz.
func NewProductInstrumented(g *graph.Graph, a *automata.NFA, c *pg.Counters) *Product {
	return &Product{G: g, A: a, counters: c, kern: pg.NewKernel(g, pg.FromNFA(g, a), c)}
}

// CompileProduct pairs a graph with the Glushkov automaton of an RPQ.
func CompileProduct(g *graph.Graph, e rpq.Expr) *Product {
	return NewProduct(g, rpq.Compile(e))
}

// Kernel exposes the forward runtime kernel of the product.
func (p *Product) Kernel() *pg.Kernel { return p.kern }

// backward returns the reversed kernel (target→source sweeps), building it
// on first use.
func (p *Product) backward() *pg.Kernel {
	p.backOnce.Do(func() {
		p.back = pg.NewKernel(p.G, pg.FromNFABackward(p.G, p.A), p.counters)
	})
	return p.back
}

// NumStates returns |N|·|Q|, the worst-case product size.
func (p *Product) NumStates() int { return p.kern.NumProductStates() }

// id packs a State into a dense integer.
func (p *Product) id(s State) int { return p.kern.ID(s) }

// unid unpacks a dense integer into a State.
func (p *Product) unid(i int) State { return p.kern.Unid(i) }

// Start returns the initial product state (u, q₀) for source node u.
func (p *Product) Start(u int) State { return State{Node: u, State: p.A.Start} }

// Accepting reports whether s is accepting, i.e. its automaton component is
// in F.
func (p *Product) Accepting(s State) bool { return p.A.Accept[s.State] }

// Succ returns the outgoing product edges of s, in ascending (graph edge,
// transition) order — the deterministic order enumeration, PMR, and
// k-shortest tie-breaking rely on.
func (p *Product) Succ(s State) []Step { return p.kern.Succ(s) }

// NewScratch allocates buffers sized for p.
func (p *Product) NewScratch() *Scratch { return p.kern.NewScratch() }

// reachableInto computes all graph nodes v such that some accepting product
// state (v, q) is reachable from (src, q₀), sorted ascending. The returned
// slice aliases sc.nodes and is valid until the next call with the same
// scratch.
func (p *Product) reachableInto(src int, sc *Scratch) []int {
	nodes, _ := p.kern.Sweep(src, sc, nil, pg.Plan{}, false) // nil meter: cannot fail
	return nodes
}

// bfs runs breadth-first search over the product from (src, q₀) and returns
// dist (−1 for unreached) and parent pointers (product id and graph edge)
// for witness reconstruction.
func (p *Product) bfs(src int) (dist []int, parent []int, parentEdge []int) {
	return p.kern.BFS(src)
}
