// Package pmr implements Path Multiset Representations (Section 6.4 of the
// paper, after Martens et al., PVLDB 2023): compact, automaton-like
// representations of (possibly infinite) sets of paths in a graph.
//
// A PMR over G is R = (N, E, src, tgt, γ, S, T) where (N, E, src, tgt) is a
// graph, γ maps R's nodes to G's nodes and R's edges to G's edges
// homomorphically, and S, T ⊆ N are source and target nodes. R represents
//
//	SPaths(R) = { γ(ρ) | ρ is a path from S to T in R }.
//
// Per the paper's position, this package treats PMRs under set semantics.
// The central constructions are FromProduct (all matching paths of an RPQ,
// possibly an infinite language, in O(|G|·|A|) space) and
// ShortestFromProduct (exactly the shortest matching paths, a DAG), plus
// cardinality, membership, and output-linear-delay enumeration.
package pmr

import (
	"fmt"
	"math/big"
	"sort"

	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Edge is a PMR edge: an edge of the representation graph together with its
// image γ(e) in G.
type Edge struct {
	Src   int // PMR node
	Tgt   int // PMR node
	GEdge int // γ(e): edge index in G
}

// PMR is a path multiset representation over a fixed graph G.
type PMR struct {
	G *graph.Graph

	// GammaNode[i] is γ of PMR node i: a node index in G.
	GammaNode []int
	// Edges are the PMR edges with their γ images.
	Edges []Edge
	// S and T are the source and target PMR node sets (sorted).
	S, T []int

	out [][]int // PMR node -> indexes into Edges
}

// New assembles and validates a PMR: γ must be a homomorphism, i.e. for
// every edge e, src(γ(e)) = γ(src(e)) and tgt(γ(e)) = γ(tgt(e)).
func New(g *graph.Graph, gammaNode []int, edges []Edge, s, t []int) (*PMR, error) {
	r := &PMR{G: g, GammaNode: gammaNode, Edges: edges,
		S: append([]int(nil), s...), T: append([]int(nil), t...)}
	sort.Ints(r.S)
	sort.Ints(r.T)
	for _, n := range append(r.S, r.T...) {
		if n < 0 || n >= len(gammaNode) {
			return nil, fmt.Errorf("pmr: source/target node %d out of range", n)
		}
	}
	r.out = make([][]int, len(gammaNode))
	for i, e := range edges {
		if e.Src < 0 || e.Src >= len(gammaNode) || e.Tgt < 0 || e.Tgt >= len(gammaNode) {
			return nil, fmt.Errorf("pmr: edge %d endpoint out of range", i)
		}
		ge := g.Edge(e.GEdge)
		if ge.Src != gammaNode[e.Src] || ge.Tgt != gammaNode[e.Tgt] {
			return nil, fmt.Errorf("pmr: edge %d violates the homomorphism condition", i)
		}
		r.out[e.Src] = append(r.out[e.Src], i)
	}
	return r, nil
}

// NumNodes returns |N| of the representation.
func (r *PMR) NumNodes() int { return len(r.GammaNode) }

// Size returns |N| + |E|, the space measure used in E17.
func (r *PMR) Size() int { return len(r.GammaNode) + len(r.Edges) }

// FromProduct builds a PMR representing the set of all node-to-node paths
// from src to dst in g that match the RPQ e. The PMR is the useful part of
// the product graph G × N_R (Section 6.4: "PMRs are closely related to the
// product graph"), so its size is O(|G|·|A|) even when the path set is
// infinite.
func FromProduct(g *graph.Graph, e rpq.Expr, src, dst int) *PMR {
	r, _ := FromProductMeter(g, e, src, dst, nil)
	return r
}

// FromProductMeter is FromProduct with an explicit meter (may be nil):
// construction work is charged every pg.CheckInterval product-state
// expansions, so a canceled context or an exhausted states budget aborts
// with the standard taxonomy errors (pg.ErrCanceled, *pg.BudgetError). The
// product expansion is the kernel's: Succ order and state packing are
// exactly pg.Kernel's, so the construction is byte-identical to the
// pre-kernel evaluator while inheriting its cancellation discipline.
func FromProductMeter(g *graph.Graph, e rpq.Expr, src, dst int, m *pg.Meter) (*PMR, error) {
	nfa := rpq.Compile(e)
	kern := pg.NewKernel(g, pg.FromNFA(g, nfa), nil)
	nStates := nfa.NumStates
	total := kern.NumProductStates()
	id := func(n, q int) int { return n*nStates + q }
	if !g.NodeAlive(src) || !g.NodeAlive(dst) {
		// Tombstoned endpoints have no paths; matches the Materialize()d
		// graph, where the node does not exist at all.
		r, _ := New(g, nil, nil, nil, nil)
		return r, nil
	}
	tick := pg.NewTicker(m, kern.Counters())

	// Forward reachability from (src, q0).
	reach := make([]bool, total)
	stack := []int{id(src, nfa.Start)}
	reach[stack[0]] = true
	type pedge struct{ from, to, gedge int }
	var edges []pedge
	for len(stack) > 0 {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, st := range kern.Succ(kern.Unid(cur)) {
			ni := id(st.To.Node, st.To.State)
			edges = append(edges, pedge{cur, ni, st.Edge})
			if !reach[ni] {
				reach[ni] = true
				stack = append(stack, ni)
			}
		}
	}
	// Backward reachability from accepting (dst, q).
	rev := make(map[int][]int)
	for _, pe := range edges {
		rev[pe.to] = append(rev[pe.to], pe.from)
	}
	coreach := make([]bool, total)
	stack = stack[:0]
	for q := 0; q < nStates; q++ {
		if nfa.Accept[q] && reach[id(dst, q)] {
			coreach[id(dst, q)] = true
			stack = append(stack, id(dst, q))
		}
	}
	for len(stack) > 0 {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, prev := range rev[cur] {
			if !coreach[prev] {
				coreach[prev] = true
				stack = append(stack, prev)
			}
		}
	}

	// Keep useful states.
	remap := make(map[int]int)
	var gammaNode []int
	keep := func(i int) bool { return reach[i] && coreach[i] }
	for i := 0; i < total; i++ {
		if keep(i) {
			remap[i] = len(gammaNode)
			gammaNode = append(gammaNode, i/nStates)
		}
	}
	var pedges []Edge
	seenEdge := map[[3]int]struct{}{}
	for _, pe := range edges {
		if keep(pe.from) && keep(pe.to) {
			k := [3]int{remap[pe.from], remap[pe.to], pe.gedge}
			if _, dup := seenEdge[k]; dup {
				continue
			}
			seenEdge[k] = struct{}{}
			pedges = append(pedges, Edge{Src: remap[pe.from], Tgt: remap[pe.to], GEdge: pe.gedge})
		}
	}
	var s, t []int
	if i, ok := remap[id(src, nfa.Start)]; ok {
		s = append(s, i)
	}
	for q := 0; q < nStates; q++ {
		if nfa.Accept[q] {
			if i, ok := remap[id(dst, q)]; ok {
				t = append(t, i)
			}
		}
	}
	r, err := New(g, gammaNode, pedges, s, t)
	if err != nil {
		panic("pmr: product construction produced invalid PMR: " + err.Error())
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

// ShortestFromProduct builds a PMR representing exactly the shortest
// matching paths from src to dst (the shortest-mode preprocessing of
// PathFinder-style engines discussed in Section 6.4). The result is a DAG.
func ShortestFromProduct(g *graph.Graph, e rpq.Expr, src, dst int) *PMR {
	r, _ := ShortestFromProductMeter(g, e, src, dst, nil)
	return r
}

// ShortestFromProductMeter is ShortestFromProduct with an explicit meter
// (may be nil): it compiles e against g and builds on that kernel.
func ShortestFromProductMeter(g *graph.Graph, e rpq.Expr, src, dst int, m *pg.Meter) (*PMR, error) {
	return ShortestFromKernel(pg.NewKernel(g, pg.FromNFA(g, rpq.Compile(e)), nil), src, dst, m)
}

// ShortestFromKernel builds the shortest-paths PMR over a compiled kernel —
// the form a serving layer with a cached kernel calls. The kernel's search
// between the anchors (pg.Kernel.Between, which meters itself) yields the
// shortest-path DAG; the representation is that DAG: one node per product
// state on a shortest path, numbered in product-state order, one edge per
// tight product edge between two of them, in Succ order. Only the DAG's
// states are expanded, never the product.
func ShortestFromKernel(kern *pg.Kernel, src, dst int, m *pg.Meter) (*PMR, error) {
	g := kern.Graph()
	empty, _ := New(g, nil, nil, nil, nil)
	if !g.NodeAlive(src) || !g.NodeAlive(dst) {
		// Tombstoned endpoints have no paths; matches the Materialize()d
		// graph, where the node does not exist at all.
		return empty, nil
	}
	meet, err := kern.Between(src, dst, m)
	if err != nil {
		return nil, err
	}
	if meet.Len < 0 {
		return empty, nil
	}
	ids, depths := meet.IDs(), meet.Depths()
	gammaNode := make([]int, len(ids))
	into := make([][]Edge, len(ids)) // into[j]: the tight edges entering state j
	var s, t []int
	tick := pg.NewTicker(m, kern.Counters())
	for i, id := range ids {
		st := kern.Unid(int(id))
		gammaNode[i] = st.Node
		if depths[i] == 0 {
			s = append(s, i)
		}
		if int(depths[i]) == meet.Len {
			t = append(t, i)
			continue
		}
		if err := tick.Step(); err != nil {
			return nil, err
		}
		for _, step := range kern.Succ(st) {
			if j := meet.Index(kern.ID(step.To)); j >= 0 && depths[j] == depths[i]+1 {
				into[j] = append(into[j], Edge{Src: i, Tgt: j, GEdge: step.Edge})
			}
		}
	}
	// Edges go out grouped by target, then by source, then in Succ order:
	// enumeration breaks ties in edge order, so the order is part of the
	// representation.
	var pedges []Edge
	for _, es := range into {
		pedges = append(pedges, es...)
	}
	r, err := New(g, gammaNode, pedges, s, t)
	if err != nil {
		panic("pmr: shortest construction produced invalid PMR: " + err.Error())
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return r, nil
}

// Cardinality returns the number of paths in SPaths(r); infinite reports
// whether the set is infinite (a cycle lies on some S→T path). The count is
// the number of S→T representation paths (a DAG path count), which is the
// number of paths in SPaths(r) when distinct representation paths have
// distinct images: the constructions in this package produce at most one
// useful state per (graph position, automaton state), so the count is exact
// when the automaton has at most one accepting run per word (Section 6.2).
// For an ambiguous expression FromProduct's representation paths are its
// accepting runs, and the count is an upper bound (Enumerate and Iterate
// list each path once).
func (r *PMR) Cardinality() (count *big.Int, infinite bool) {
	useful := r.usefulStates()
	// Cycle detection within useful subgraph.
	color := make([]int, r.NumNodes()) // 0 white, 1 gray, 2 black
	var cyclic bool
	var dfs func(n int)
	dfs = func(n int) {
		color[n] = 1
		for _, ei := range r.out[n] {
			to := r.Edges[ei].Tgt
			if !useful[to] {
				continue
			}
			switch color[to] {
			case 0:
				dfs(to)
			case 1:
				cyclic = true
			}
		}
		color[n] = 2
	}
	for _, s := range r.S {
		if useful[s] && color[s] == 0 {
			dfs(s)
		}
	}
	if cyclic {
		return nil, true
	}
	// Acyclic: count distinct images by DAG DP over representation paths;
	// dedup via enumeration when feasible is handled by callers/tests.
	memo := make([]*big.Int, r.NumNodes())
	inT := map[int]bool{}
	for _, t := range r.T {
		inT[t] = true
	}
	var countFrom func(n int) *big.Int
	countFrom = func(n int) *big.Int {
		if memo[n] != nil {
			return memo[n]
		}
		total := new(big.Int)
		if inT[n] {
			total.SetInt64(1)
		}
		memo[n] = total // safe: DAG
		for _, ei := range r.out[n] {
			to := r.Edges[ei].Tgt
			if useful[to] {
				total.Add(total, countFrom(to))
			}
		}
		return total
	}
	sum := new(big.Int)
	seenStart := map[int]bool{}
	for _, s := range r.S {
		if useful[s] && !seenStart[s] {
			seenStart[s] = true
			sum.Add(sum, countFrom(s))
		}
	}
	return sum, false
}

// usefulStates marks nodes both reachable from S and co-reachable to T.
func (r *PMR) usefulStates() []bool {
	n := r.NumNodes()
	reach := make([]bool, n)
	var stack []int
	for _, s := range r.S {
		if !reach[s] {
			reach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range r.out[cur] {
			to := r.Edges[ei].Tgt
			if !reach[to] {
				reach[to] = true
				stack = append(stack, to)
			}
		}
	}
	rev := make([][]int, n)
	for _, e := range r.Edges {
		rev[e.Tgt] = append(rev[e.Tgt], e.Src)
	}
	coreach := make([]bool, n)
	stack = stack[:0]
	for _, t := range r.T {
		if !coreach[t] {
			coreach[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, from := range rev[cur] {
			if !coreach[from] {
				coreach[from] = true
				stack = append(stack, from)
			}
		}
	}
	useful := make([]bool, n)
	for i := range useful {
		useful[i] = reach[i] && coreach[i]
	}
	return useful
}

// Enumerate yields up to limit distinct paths of SPaths(r) in order of
// nondecreasing length. Because enumeration walks only useful states, every
// partial path extends to a result — the property behind output-linear
// delay (Section 6.4).
func (r *PMR) Enumerate(limit int) []gpath.Path {
	out, _ := r.EnumerateMeter(limit, nil)
	return out
}

// EnumerateMeter is Enumerate with an explicit meter (may be nil):
// expansion steps count against the states budget (amortized every
// pg.CheckInterval) and each emitted path against the rows budget; errors
// follow the standard taxonomy. On error no partial result is returned.
func (r *PMR) EnumerateMeter(limit int, m *pg.Meter) ([]gpath.Path, error) {
	if limit <= 0 {
		return nil, nil
	}
	tick := pg.NewTicker(m, nil)
	useful := r.usefulStates()
	inT := map[int]bool{}
	for _, t := range r.T {
		inT[t] = true
	}
	type partial struct {
		node  int
		edges []int // graph edge indexes
	}
	var queue []partial
	seenStart := map[int]bool{}
	for _, s := range r.S {
		if useful[s] && !seenStart[s] {
			seenStart[s] = true
			queue = append(queue, partial{node: s})
		}
	}
	seen := map[string]struct{}{}
	var out []gpath.Path
	for len(queue) > 0 && len(out) < limit {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		cur := queue[0]
		queue = queue[1:]
		if inT[cur.node] {
			p := r.imagePath(cur)
			k := p.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				if err := m.AddRows(1); err != nil {
					return nil, err
				}
				out = append(out, p)
				if len(out) == limit {
					break
				}
			}
		}
		for _, ei := range r.out[cur.node] {
			e := r.Edges[ei]
			if !useful[e.Tgt] {
				continue
			}
			ext := make([]int, len(cur.edges)+1)
			copy(ext, cur.edges)
			ext[len(cur.edges)] = e.GEdge
			queue = append(queue, partial{node: e.Tgt, edges: ext})
		}
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// imagePath renders a partial's γ-image as a node-to-node path. The start
// node is recovered from the first edge (or the final node for the empty
// path — partial.node, since no edges were taken).
func (r *PMR) imagePath(p struct {
	node  int
	edges []int
}) gpath.Path {
	if len(p.edges) == 0 {
		return gpath.OfNode(r.GammaNode[p.node])
	}
	out := gpath.OfNode(r.G.Edge(p.edges[0]).Src)
	for _, ge := range p.edges {
		next, _ := gpath.Concat(r.G, out, gpath.Triple(r.G, ge))
		out = next
	}
	return out
}

// Contains reports whether the node-to-node path p belongs to SPaths(r),
// by subset simulation over the representation.
func (r *PMR) Contains(p gpath.Path) bool {
	src, ok := p.Src(r.G)
	if !ok {
		return false
	}
	cur := map[int]struct{}{}
	for _, s := range r.S {
		if r.GammaNode[s] == src {
			cur[s] = struct{}{}
		}
	}
	for _, ge := range p.Edges() {
		next := map[int]struct{}{}
		for n := range cur {
			for _, ei := range r.out[n] {
				e := r.Edges[ei]
				if e.GEdge == ge {
					next[e.Tgt] = struct{}{}
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return false
		}
	}
	for n := range cur {
		for _, t := range r.T {
			if n == t {
				return true
			}
		}
	}
	return false
}

// Iterator yields SPaths(r) lazily, one path per Next call, in
// nondecreasing length order. Because the walk is restricted to useful
// states, every partial path extends to an output — the structural property
// behind the output-linear-delay enumeration results of Section 6.4: the
// work between two Next calls is proportional to the size of the path
// produced, not to the number of dead ends.
type Iterator struct {
	r      *PMR
	useful []bool
	inT    map[int]bool
	queue  []iterItem
	seen   map[string]struct{}
}

type iterItem struct {
	node  int
	edges []int
}

// Iterate returns a fresh iterator over SPaths(r).
func (r *PMR) Iterate() *Iterator {
	it := &Iterator{
		r:      r,
		useful: r.usefulStates(),
		inT:    map[int]bool{},
		seen:   map[string]struct{}{},
	}
	for _, t := range r.T {
		it.inT[t] = true
	}
	started := map[int]bool{}
	for _, s := range r.S {
		if it.useful[s] && !started[s] {
			started[s] = true
			it.queue = append(it.queue, iterItem{node: s})
		}
	}
	return it
}

// Next returns the next path; ok is false when the (possibly infinite)
// enumeration is exhausted. For infinite SPaths, Next never returns
// ok=false — callers decide when to stop.
func (it *Iterator) Next() (gpath.Path, bool) {
	for len(it.queue) > 0 {
		cur := it.queue[0]
		it.queue = it.queue[1:]
		// Extend first so the frontier keeps breadth-first length order.
		for _, ei := range it.r.out[cur.node] {
			e := it.r.Edges[ei]
			if !it.useful[e.Tgt] {
				continue
			}
			ext := make([]int, len(cur.edges)+1)
			copy(ext, cur.edges)
			ext[len(cur.edges)] = e.GEdge
			it.queue = append(it.queue, iterItem{node: e.Tgt, edges: ext})
		}
		if it.inT[cur.node] {
			p := it.r.imagePath(struct {
				node  int
				edges []int
			}{cur.node, cur.edges})
			k := p.Key()
			if _, dup := it.seen[k]; !dup {
				it.seen[k] = struct{}{}
				return p, true
			}
		}
	}
	return gpath.Path{}, false
}

// Union returns a PMR representing SPaths(a) ∪ SPaths(b): the disjoint
// union of the two representations (both must be over the same graph).
func Union(a, b *PMR) (*PMR, error) {
	if a.G != b.G {
		return nil, fmt.Errorf("pmr: union of PMRs over different graphs")
	}
	off := a.NumNodes()
	gamma := make([]int, 0, a.NumNodes()+b.NumNodes())
	gamma = append(gamma, a.GammaNode...)
	gamma = append(gamma, b.GammaNode...)
	edges := make([]Edge, 0, len(a.Edges)+len(b.Edges))
	edges = append(edges, a.Edges...)
	for _, e := range b.Edges {
		edges = append(edges, Edge{Src: e.Src + off, Tgt: e.Tgt + off, GEdge: e.GEdge})
	}
	var s, t []int
	s = append(s, a.S...)
	for _, x := range b.S {
		s = append(s, x+off)
	}
	t = append(t, a.T...)
	for _, x := range b.T {
		t = append(t, x+off)
	}
	return New(a.G, gamma, edges, s, t)
}
