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
// The two constructions build on a compiled product kernel (pg.Kernel):
// FromKernel (all matching paths, possibly an infinite language, in
// O(|G|·|A|) space) and ShortestFromKernel (exactly the shortest matching
// paths, a DAG). On a representation: cardinality, membership, and one
// output-linear-delay enumerator (Iterate; Enumerate collects from it).
package pmr

import (
	"cmp"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strconv"

	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
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

	out    [][]int // PMR node -> indexes into Edges
	useful []bool  // PMR node -> reachable from S and co-reachable to T
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
	r.useful = r.usefulStates()
	return r, nil
}

// NumNodes returns |N| of the representation.
func (r *PMR) NumNodes() int { return len(r.GammaNode) }

// Size returns |N| + |E|, the space measure used in E17.
func (r *PMR) Size() int { return len(r.GammaNode) + len(r.Edges) }

// FromKernel builds a PMR representing the set of all node-to-node paths
// from src to dst in the kernel's graph that match its automaton. The PMR is
// the useful part of the product graph G × N_R (Section 6.4: "PMRs are
// closely related to the product graph"), so its size is O(|G|·|A|) even
// when the path set is infinite: one node per product state both reachable
// from (src, a start state) and co-reachable to (dst, an accepting state),
// numbered in product-state order, one edge per distinct product edge
// between two of them, in the order a depth-first walk in Succ order finds
// them. Construction work is charged on m (may be nil) every
// pg.CheckInterval product-state expansions, and on the kernel's counters.
func FromKernel(kern *pg.Kernel, src, dst int, m *pg.Meter) (*PMR, error) {
	g := kern.Graph()
	nq := kern.Semantics().NumStates()
	total := kern.NumProductStates()
	id := func(n, q int) int { return kern.ID(pg.State{Node: n, State: q}) }
	if !g.NodeAlive(src) || !g.NodeAlive(dst) {
		// Tombstoned endpoints have no paths; matches the Materialize()d
		// graph, where the node does not exist at all.
		return New(g, nil, nil, nil, nil)
	}
	tick := pg.NewTicker(m, kern.Counters())

	// Forward reachability from the start states at src.
	reach := make([]bool, total)
	var stack []int
	for _, q := range kern.Semantics().Starts() {
		if i := id(src, q); !reach[i] {
			reach[i] = true
			stack = append(stack, i)
		}
	}
	starts := append([]int(nil), stack...)
	type pedge struct{ from, to, gedge int }
	var edges []pedge
	for len(stack) > 0 {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, st := range kern.Succ(kern.Unid(cur)) {
			ni := kern.ID(st.To)
			edges = append(edges, pedge{cur, ni, st.Edge})
			if !reach[ni] {
				reach[ni] = true
				stack = append(stack, ni)
			}
		}
	}
	// Backward reachability from the accepting states at dst.
	rev := make(map[int][]int)
	for _, pe := range edges {
		rev[pe.to] = append(rev[pe.to], pe.from)
	}
	coreach := make([]bool, total)
	var ends []int
	for q := 0; q < nq; q++ {
		if i := id(dst, q); kern.Accepting(pg.State{Node: dst, State: q}) && reach[i] {
			coreach[i] = true
			ends = append(ends, i)
		}
	}
	stack = append(stack[:0], ends...)
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
			gammaNode = append(gammaNode, kern.Unid(i).Node)
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
	for _, i := range starts {
		if j, ok := remap[i]; ok {
			s = append(s, j)
		}
	}
	for _, i := range ends {
		if j, ok := remap[i]; ok {
			t = append(t, j)
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

// ShortestFromKernel builds the PMR of exactly the shortest matching paths
// from src to dst (the shortest-mode preprocessing of PathFinder-style
// engines discussed in Section 6.4); the result is a DAG. The kernel's search
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
// whether the set is infinite (a cycle lies on some S→T path). Paths, not
// representation paths, are counted: for an ambiguous expression several
// representation paths (accepting runs) share one image, so the count runs
// on the representation determinized by its image — over the sets of
// useful nodes that one graph-edge sequence reaches together, built only as
// far as the count visits them. Where every such set holds one node, as for
// an unambiguous expression (Section 6.2), it is the DAG path count.
func (r *PMR) Cardinality() (count *big.Int, infinite bool) {
	useful := r.useful
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
	c := imageCount{r: r, inT: make([]bool, r.NumNodes()), one: make([]*big.Int, r.NumNodes()), many: map[string]*big.Int{}}
	for _, t := range r.T {
		c.inT[t] = true
	}
	// A path starts at γ of its first node: the useful sources with one
	// image start one set.
	starts := map[int][]int{}
	var images []int
	for _, s := range r.S {
		if useful[s] {
			v := r.GammaNode[s]
			if starts[v] == nil {
				images = append(images, v)
			}
			starts[v] = append(starts[v], s)
		}
	}
	sum := new(big.Int)
	for _, v := range images {
		sum.Add(sum, c.count(slices.Compact(starts[v])))
	}
	return sum, false
}

// imageCount counts the distinct images of the paths from a set of useful
// nodes to T, memoized per set: by node for a set of one, by its sorted
// members otherwise. The useful part is acyclic when it runs, so the sets
// a count reaches form a DAG.
type imageCount struct {
	r    *PMR
	inT  []bool
	one  []*big.Int
	many map[string]*big.Int
}

// count counts from set, sorted and duplicate-free: one for the
// zero-length path if set holds a target, plus, per graph edge leaving set,
// the count from the set of useful nodes that edge leads to.
func (c *imageCount) count(set []int) *big.Int {
	var key string
	if len(set) == 1 {
		if n := c.one[set[0]]; n != nil {
			return n
		}
	} else {
		var b []byte
		for _, n := range set {
			b = strconv.AppendInt(append(b, ','), int64(n), 10)
		}
		key = string(b)
		if n, ok := c.many[key]; ok {
			return n
		}
	}
	total := new(big.Int)
	var steps []Edge
	for _, n := range set {
		if c.inT[n] {
			total.SetInt64(1)
		}
		for _, ei := range c.r.out[n] {
			if e := c.r.Edges[ei]; c.r.useful[e.Tgt] {
				steps = append(steps, e)
			}
		}
	}
	slices.SortFunc(steps, func(a, b Edge) int { return cmp.Or(a.GEdge-b.GEdge, a.Tgt-b.Tgt) })
	for lo := 0; lo < len(steps); {
		hi := lo + 1
		for hi < len(steps) && steps[hi].GEdge == steps[lo].GEdge {
			hi++
		}
		next := make([]int, 0, hi-lo)
		for _, e := range steps[lo:hi] {
			if len(next) == 0 || next[len(next)-1] != e.Tgt {
				next = append(next, e.Tgt)
			}
		}
		total.Add(total, c.count(next))
		lo = hi
	}
	if len(set) == 1 {
		c.one[set[0]] = total
	} else {
		c.many[key] = total
	}
	return total
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

// Enumerate returns up to limit distinct paths of SPaths(r) in order of
// nondecreasing length: the first limit paths of Iterate(m). On error no
// partial result is returned.
func (r *PMR) Enumerate(limit int, m *pg.Meter) ([]gpath.Path, error) {
	it := r.Iterate(m)
	var out []gpath.Path
	for len(out) < limit {
		p, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := it.Flush(); err != nil {
		return nil, err
	}
	return out, nil
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
// nondecreasing length order, by a breadth-first walk over representation
// paths from S. Because the walk is restricted to useful states, every
// partial path extends to an output — the structural property behind the
// output-linear-delay enumeration results of Section 6.4: the work between
// two Next calls is proportional to the size of the path produced, not to
// the number of dead ends.
type Iterator struct {
	r    *PMR
	m    *pg.Meter
	tick pg.Ticker
	inT  []bool
	// walk holds every partial path the walk has reached, each one edge
	// past its parent; walk[head:] is the breadth-first queue.
	walk  []partial
	head  int
	edges []int // scratch: the graph edges of the partial being emitted
	seen  map[string]struct{}
}

// partial is a representation path: the PMR node reached over the PMR
// edge edge (-1 at a start) from the walk's partial at index parent.
type partial struct{ node, edge, parent int }

// Iterate returns a fresh iterator over SPaths(r). Each partial path it
// takes off its queue is one step on m (may be nil), charged every
// pg.CheckInterval and by Flush, and each path it returns one row.
func (r *PMR) Iterate(m *pg.Meter) *Iterator {
	it := &Iterator{
		r:    r,
		m:    m,
		tick: pg.NewTicker(m, nil),
		inT:  make([]bool, r.NumNodes()),
		seen: map[string]struct{}{},
	}
	for _, t := range r.T {
		it.inT[t] = true
	}
	started := map[int]bool{}
	for _, s := range r.S {
		if r.useful[s] && !started[s] {
			started[s] = true
			it.walk = append(it.walk, partial{node: s, edge: -1, parent: -1})
		}
	}
	return it
}

// Next returns the next path; ok is false when the (possibly infinite)
// enumeration is exhausted. For infinite SPaths, Next never returns
// ok=false — callers decide when to stop. err is the meter's verdict
// (cancellation, an exhausted budget).
func (it *Iterator) Next() (p gpath.Path, ok bool, err error) {
	for it.head < len(it.walk) {
		if err := it.tick.Step(); err != nil {
			return gpath.Path{}, false, err
		}
		at := it.head
		it.head++
		node := it.walk[at].node
		// Extend first so the frontier keeps breadth-first length order.
		for _, ei := range it.r.out[node] {
			if to := it.r.Edges[ei].Tgt; it.r.useful[to] {
				it.walk = append(it.walk, partial{node: to, edge: ei, parent: at})
			}
		}
		if !it.inT[node] {
			continue
		}
		p := it.image(at)
		k := p.Key()
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		if err := it.m.AddRows(1); err != nil {
			return gpath.Path{}, false, err
		}
		return p, true, nil
	}
	return gpath.Path{}, false, nil
}

// Flush charges the meter the steps not yet charged; call it when done
// with the iterator.
func (it *Iterator) Flush() error { return it.tick.Flush() }

// image renders the γ-image of the walk's partial at as a node-to-node
// path.
func (it *Iterator) image(at int) gpath.Path {
	r := it.r
	it.edges = it.edges[:0]
	for ; it.walk[at].edge >= 0; at = it.walk[at].parent {
		it.edges = append(it.edges, r.Edges[it.walk[at].edge].GEdge)
	}
	slices.Reverse(it.edges)
	return gpath.FromEdges(r.G, r.GammaNode[it.walk[at].node], it.edges)
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
