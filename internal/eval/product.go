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
// A Product holds the NFA compiled into a pg.Kernel (guards resolved
// against the graph's interned label numbering), which the pairs sweeps
// run on, and the reversed kernel for backward plans, built on first use.
// It is immutable after construction (the lazy field is a sync.Once) and
// safe for concurrent use.
type Product struct {
	G *graph.Graph
	A *automata.NFA

	kern     *pg.Kernel
	counters *pg.Counters

	backOnce sync.Once
	back     *pg.Kernel
}

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
