// Package bag implements the pre-2012 SPARQL 1.1 bag semantics for property
// paths that Section 6.1 of the paper revisits ("Bag Semantics and
// Recursion: Boom!", after Arenas, Conca, and Pérez, WWW 2012): union and
// concatenation are multiset operations, and the Kleene star counts the
// ways a path expression can be matched along node sequences without
// repeated nodes. Under this semantics the innocuous expression
// (((a*)*)*)* on a 6-clique yields more answers than there are protons in
// the observable universe — the package computes those counts exactly with
// math/big.
//
// The set-semantics comparison point is eval.Pairs, which answers the same
// queries in milliseconds.
//
// The counting operators stay tier-local, but the reachability questions
// inside them route through the product-graph kernel: count(u, v, e) > 0
// exactly when (u, v) ∈ ⟦e⟧ under set semantics — multiplicities are
// nonnegative, and any witnessing node sequence shortens to a
// duplicate-free one by cycle removal — so the kernel's reachable sets
// prune the star recursion soundly. The Meter entry points are stopped and
// charged through the same Ticker discipline as the other tiers.
package bag

import (
	"fmt"
	"math/big"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Count returns the multiplicity of the answer (src, dst) for expression e
// on g under bag semantics:
//
//	count(u, v, ℓ)        = number of ℓ-labeled edges u → v
//	count(u, v, !S)       = number of edges u → v with label ∉ S
//	count(u, v, ε)        = 1 if u = v else 0
//	count(u, v, R₁·R₂)    = Σ_w count(u, w, R₁) · count(w, v, R₂)
//	count(u, v, R₁+R₂)    = count(u, v, R₁) + count(u, v, R₂)
//	count(u, v, R*)       = Σ over node sequences u = n₀, n₁, …, n_k = v
//	                        with pairwise-distinct nodes (k ≥ 0) of
//	                        Π_i count(n_i, n_{i+1}, R)
//
// The star case is the draft-standard counting over duplicate-free node
// sequences that produced the explosion. R{n,m}, R?, R⁺ are desugared first.
func Count(g *graph.Graph, e rpq.Expr, src, dst int) *big.Int {
	out, _ := CountMeter(g, e, src, dst, nil)
	return out
}

// CountMeter is Count with an explicit meter (may be nil): counting work is
// charged to the states budget (amortized every pg.CheckInterval), the
// produced answer to the rows budget. Errors follow the standard taxonomy
// (pg.ErrCanceled, *pg.BudgetError) and return no partial results.
func CountMeter(g *graph.Graph, e rpq.Expr, src, dst int, m *pg.Meter) (*big.Int, error) {
	// Dead endpoints answer as on the Materialize()d graph: zero ways.
	if !g.NodeAlive(src) || !g.NodeAlive(dst) {
		return new(big.Int), nil
	}
	tick := pg.NewTicker(m, nil)
	c := newCounter(g, m, &tick)
	out, err := c.count(rpq.Desugar(e), src, dst)
	if err != nil {
		return nil, err
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	if err := m.AddRows(1); err != nil {
		return nil, err
	}
	return out, nil
}

// TotalCount returns Σ_{u,v} count(u, v, e): the total number of answers
// (with multiplicities) the query returns — the quantity Section 6.1
// compares against the number of protons in the observable universe.
func TotalCount(g *graph.Graph, e rpq.Expr) *big.Int {
	out, _ := TotalCountMeter(g, e, nil)
	return out
}

// TotalCountMeter is TotalCount with an explicit meter (may be nil): each
// (u, v) pair with non-zero multiplicity is charged to the rows budget,
// counting work to the states budget. See CountMeter for the error
// contract.
func TotalCountMeter(g *graph.Graph, e rpq.Expr, m *pg.Meter) (*big.Int, error) {
	tick := pg.NewTicker(m, nil)
	c := newCounter(g, m, &tick)
	desugared := rpq.Desugar(e)
	total := new(big.Int)
	for u := 0; u < g.NumNodes(); u++ {
		if !g.NodeAlive(u) {
			continue
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !g.NodeAlive(v) {
				continue
			}
			n, err := c.count(desugared, u, v)
			if err != nil {
				return nil, err
			}
			if n.Sign() > 0 {
				if err := m.AddRows(1); err != nil {
					return nil, err
				}
			}
			total.Add(total, n)
		}
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return total, nil
}

// SetCount returns the number of answers under set semantics — |⟦R⟧_G|
// computed by simply checking which pairs have non-zero multiplicity. For
// the k-clique experiments this is k² regardless of the star nesting.
func SetCount(g *graph.Graph, e rpq.Expr) int {
	c := newCounter(g, nil, nil)
	desugared := rpq.Desugar(e)
	n := 0
	for u := 0; u < g.NumNodes(); u++ {
		if !g.NodeAlive(u) {
			continue
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !g.NodeAlive(v) {
				continue
			}
			m, _ := c.count(desugared, u, v)
			if m.Sign() > 0 {
				n++
			}
		}
	}
	return n
}

type counter struct {
	g    *graph.Graph
	m    *pg.Meter
	tick *pg.Ticker
	memo map[string]*big.Int

	// reach caches kernel reachable sets per (subexpression, source):
	// reach[e.String()][u] is the set of v with (u, v) ∈ ⟦e⟧. Lazily built;
	// used to prune the star recursion.
	kernels map[string]*pg.Kernel
	reach   map[string]map[int]map[int]bool
}

func newCounter(g *graph.Graph, m *pg.Meter, tick *pg.Ticker) *counter {
	return &counter{
		g:       g,
		m:       m,
		tick:    tick,
		memo:    map[string]*big.Int{},
		kernels: map[string]*pg.Kernel{},
		reach:   map[string]map[int]map[int]bool{},
	}
}

func (c *counter) step() error {
	if c.tick == nil {
		return nil
	}
	return c.tick.Step()
}

// reachable returns the set of nodes v with (u, v) ∈ ⟦e⟧ under set
// semantics, computed by the product-graph kernel and cached.
func (c *counter) reachable(e rpq.Expr, u int) (map[int]bool, error) {
	key := e.String()
	kern, ok := c.kernels[key]
	if !ok {
		kern = pg.NewKernel(c.g, pg.FromNFA(c.g, rpq.Compile(e)), nil)
		c.kernels[key] = kern
		c.reach[key] = map[int]map[int]bool{}
	}
	if set, ok := c.reach[key][u]; ok {
		return set, nil
	}
	sc := kern.GetScratch()
	defer kern.PutScratch(sc)
	nodes, err := kern.Sweep(u, sc, c.m, false)
	if err != nil {
		return nil, err
	}
	set := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		set[v] = true
	}
	c.reach[key][u] = set
	return set, nil
}

func (c *counter) count(e rpq.Expr, u, v int) (*big.Int, error) {
	if err := c.step(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%d", e, u, v)
	if m, ok := c.memo[key]; ok {
		return m, nil
	}
	var out *big.Int
	var err error
	switch n := e.(type) {
	case rpq.Epsilon:
		out = big.NewInt(0)
		if u == v {
			out.SetInt64(1)
		}
	case rpq.Label:
		out = c.edgeCount(u, v, func(lab string) bool { return lab == n.Name })
	case rpq.NotIn:
		out = c.edgeCount(u, v, func(lab string) bool {
			for _, s := range n.Set {
				if lab == s {
					return false
				}
			}
			return true
		})
	case rpq.Concat:
		out, err = c.countConcat(n.Parts, u, v)
	case rpq.Union:
		out = new(big.Int)
		for _, alt := range n.Alts {
			m, aerr := c.count(alt, u, v)
			if aerr != nil {
				return nil, aerr
			}
			out.Add(out, m)
		}
	case rpq.Star:
		out, err = c.countStar(n.Sub, u, v)
	default:
		panic(fmt.Sprintf("bag: unexpected expression %T (desugar first)", e))
	}
	if err != nil {
		return nil, err
	}
	c.memo[key] = out
	return out, nil
}

func (c *counter) edgeCount(u, v int, match func(string) bool) *big.Int {
	n := 0
	for _, ei := range c.g.Out(u) {
		e := c.g.Edge(ei)
		if e.Tgt == v && match(e.Label) {
			n++
		}
	}
	return big.NewInt(int64(n))
}

func (c *counter) countConcat(parts []rpq.Expr, u, v int) (*big.Int, error) {
	if len(parts) == 0 {
		if u == v {
			return big.NewInt(1), nil
		}
		return big.NewInt(0), nil
	}
	if len(parts) == 1 {
		return c.count(parts[0], u, v)
	}
	total := new(big.Int)
	tmp := new(big.Int)
	for w := 0; w < c.g.NumNodes(); w++ {
		if err := c.step(); err != nil {
			return nil, err
		}
		if !c.g.NodeAlive(w) {
			continue
		}
		left, err := c.count(parts[0], u, w)
		if err != nil {
			return nil, err
		}
		if left.Sign() == 0 {
			continue
		}
		right, err := c.countConcat(parts[1:], w, v)
		if err != nil {
			return nil, err
		}
		if right.Sign() == 0 {
			continue
		}
		tmp.Mul(left, right)
		total.Add(total, tmp)
	}
	return total, nil
}

// countStar sums Π count(nᵢ, nᵢ₊₁, sub) over duplicate-free node sequences
// from u to v. The kernel prunes the recursion: the star is feasible only
// when v is kernel-reachable from u under sub*, and each extension step
// only considers nodes kernel-reachable from the current one under sub —
// exactly the candidates with non-zero count, so totals are unchanged.
func (c *counter) countStar(sub rpq.Expr, u, v int) (*big.Int, error) {
	starReach, err := c.reachable(rpq.Star{Sub: sub}, u)
	if err != nil {
		return nil, err
	}
	if !starReach[v] {
		return new(big.Int), nil
	}
	total := new(big.Int)
	used := make([]bool, c.g.NumNodes())
	used[u] = true
	prod := big.NewInt(1)
	var rec func(cur int, acc *big.Int) error
	rec = func(cur int, acc *big.Int) error {
		if cur == v {
			total.Add(total, acc)
		}
		stepReach, err := c.reachable(sub, cur)
		if err != nil {
			return err
		}
		for next := 0; next < c.g.NumNodes(); next++ {
			if err := c.step(); err != nil {
				return err
			}
			if used[next] || !c.g.NodeAlive(next) || !stepReach[next] {
				continue
			}
			step, err := c.count(sub, cur, next)
			if err != nil {
				return err
			}
			if step.Sign() == 0 {
				continue
			}
			used[next] = true
			nacc := new(big.Int).Mul(acc, step)
			if err := rec(next, nacc); err != nil {
				return err
			}
			used[next] = false
		}
		return nil
	}
	if err := rec(u, prod); err != nil {
		return nil, err
	}
	return total, nil
}
