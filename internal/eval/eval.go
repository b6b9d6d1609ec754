package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"

	"graphquery/internal/automata"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// ErrUnbounded is returned when an enumeration under mode "all" would be
// infinite and no MaxLen/Limit bound was supplied.
var ErrUnbounded = errors.New("eval: unbounded enumeration under mode all requires MaxLen or Limit")

// Parallelism resolves an Options.Parallelism value to a worker count:
// values ≤ 0 mean "one worker per available CPU".
func Parallelism(p int) int { return pg.Workers(p) }

// Pairs computes ⟦R⟧_G = {(u,v) | some path from u to v matches R}
// (Section 3.1.1), via product-graph sweeps from every source node (see
// PairsProductEmit). Results are sorted lexicographically.
func Pairs(g *graph.Graph, e rpq.Expr) [][2]int {
	return PairsCompiled(g, rpq.Compile(e), Options{})
}

// PairsOpt is Pairs with explicit options (the fan-out degree).
func PairsOpt(g *graph.Graph, e rpq.Expr, opts Options) [][2]int {
	return PairsCompiled(g, rpq.Compile(e), opts)
}

// PairsCompiled evaluates an already compiled automaton — the entry point
// for plan caches that skip parsing and Glushkov compilation. It is
// unmetered (opts.Meter is ignored), so it cannot fail. See
// PairsProductEmit for the ordering guarantee.
func PairsCompiled(g *graph.Graph, a *automata.NFA, opts Options) [][2]int {
	opts.Meter = nil
	out, _ := PairsProduct(NewProduct(g, a), opts)
	return out
}

// PairsProduct evaluates over an already graph-resolved product — the entry
// point for engines that cache the product alongside the compiled NFA (a
// Product is immutable, so one instance serves concurrent queries). It is
// the buffered face of PairsProductEmit, whose emit appends — the boundary
// where the kernel's runs become the index pairs the library API returns.
// opts.Meter stops and charges it; with a nil meter it cannot fail. An
// error voids the result.
func PairsProduct(p *Product, opts Options) ([][2]int, error) {
	var out [][2]int
	err := PairsProductEmit(p, opts, func(part pg.Runs) error {
		out = AppendPairs(out, part)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PairsProductCtx is PairsProduct with the meter minted from ctx, with no
// budget, when opts.Meter is nil. No evaluator calls it — each is stopped
// only through the meter it is handed — but the benchmark harness does.
func PairsProductCtx(ctx context.Context, p *Product, opts Options) ([][2]int, error) {
	if opts.Meter == nil {
		opts.Meter = NewMeter(ctx, Budget{})
	}
	return PairsProduct(p, opts)
}

// AppendPairs appends the (source, target) pairs of part to dst, in order.
func AppendPairs(dst [][2]int, part pg.Runs) [][2]int {
	dst = slices.Grow(dst, part.Len())
	for i, u := range part.Src {
		for _, v := range part.Targets(i) {
			dst = append(dst, [2]int{int(u), int(v)})
		}
	}
	return dst
}

// PairsProductEmit evaluates all pairs through the kernel's all-sources
// driver (pg.Kernel.SweepAll): sources swept 64 to a batch, batches fanned
// out over the worker pool, every sweep metered, and the pairs handed to
// emit as runs (pg.Runs) in lexicographic order — sources ascending, each
// source's targets ascending — so the output is byte-identical at any
// worker count and needs no final sort. Every sweep is charged to
// opts.Meter (nil: unmetered); workers share it, so a canceled context or an
// exhausted budget stops all of them within one check interval; the pool is
// always joined before returning.
//
// Delivery is incremental: emit runs while later batches are still going,
// memory is bounded by the fan-out's in-flight window — O(window × batch
// result), not O(total result) — and a blocked emit throttles the worker
// pool (backpressure). Rows are charged on the meter as their batch is
// delivered, so a MaxRows budget trips on row MaxRows+1 and the rows of
// every source before the tripping one are already with emit. emit is never
// called concurrently with itself and owns the runs it is handed; its error
// stops evaluation and is returned verbatim (serving layers use a sentinel
// to stop early, e.g. when a cursor page is full).
//
// A backward plan cannot deliver incrementally: it sweeps targets on the
// reversed kernel, so nothing is correctly ordered until every sweep has
// finished. It collects through the same driver — a run per target, targets
// ascending, each target's sources ascending — transposes them into the
// forward order (the two directions produce the same set, so the sequences
// are identical) and hands emit everything at once: same order, peak memory
// O(total result).
func PairsProductEmit(p *Product, opts Options, emit func(pg.Runs) error) error {
	plan := opts.Plan
	workers := plan.Workers
	if workers == 0 {
		workers = Parallelism(opts.Parallelism)
	}
	kern, deliver := p.kern, emit
	var collected []pg.Runs
	pairs := 0
	if plan.Backward {
		kern = p.backward()
		deliver = func(part pg.Runs) error {
			if pairs += part.Len(); pairs > math.MaxInt32 { // more than one Runs can hold
				return &pg.BudgetError{Resource: "rows", Limit: math.MaxInt32}
			}
			collected = append(collected, part)
			return nil
		}
	}
	kern.Counters().CountPlan(pg.Plan{Backward: plan.Backward, Workers: workers})
	err := kern.SweepAll(workers, opts.Meter, true, deliver)
	if err != nil || pairs == 0 {
		return err
	}
	return emit(transpose(collected, pairs, p.G.NumNodes()))
}

// transpose turns runs of (target, sources), targets ascending, into runs
// of (source, targets), sources ascending: one stable counting sort on the
// source, no comparison — a source's targets are met in ascending order,
// so they land in ascending order.
func transpose(parts []pg.Runs, pairs, nodes int) pg.Runs {
	next := make([]int32, nodes+1)
	for _, part := range parts {
		for _, u := range part.Tgt {
			next[u+1]++
		}
	}
	k := 0
	for u := 1; u <= nodes; u++ {
		if next[u] > 0 {
			k++
		}
		next[u] += next[u-1]
	}
	out := pg.NewRuns(k, pairs)
	k = 0
	for u := 0; u < nodes; u++ {
		if next[u+1] > next[u] {
			out.Src[k], out.End[k] = int32(u), next[u+1]
			k++
		}
	}
	for _, part := range parts {
		for i, t := range part.Src {
			for _, u := range part.Targets(i) {
				out.Tgt[next[u]] = t
				next[u]++
			}
		}
	}
	return out
}

// ReachableFrom returns all v with (src, v) ∈ ⟦R⟧_G, sorted.
func ReachableFrom(g *graph.Graph, e rpq.Expr, src int) []int {
	return reachableFrom(CompileProduct(g, e), src)
}

func reachableFrom(p *Product, src int) []int {
	return p.reachableInto(src, p.NewScratch())
}

// Check reports whether (src, dst) ∈ ⟦R⟧_G.
func Check(g *graph.Graph, e rpq.Expr, src, dst int) bool {
	p := CompileProduct(g, e)
	dist, _, _ := p.bfs(src)
	for q := 0; q < p.A.NumStates; q++ {
		if p.A.Accept[q] && dist[p.id(State{Node: dst, State: q})] >= 0 {
			return true
		}
	}
	return false
}

// Witness returns one shortest path from src to dst matching R, or ok=false
// if none exists.
func Witness(g *graph.Graph, e rpq.Expr, src, dst int) (gpath.Path, bool) {
	p := CompileProduct(g, e)
	dist, parent, parentEdge := p.bfs(src)
	best, bestDist := -1, -1
	for q := 0; q < p.A.NumStates; q++ {
		id := p.id(State{Node: dst, State: q})
		if p.A.Accept[q] && dist[id] >= 0 && (bestDist == -1 || dist[id] < bestDist) {
			best, bestDist = id, dist[id]
		}
	}
	if best == -1 {
		return gpath.Path{}, false
	}
	// Reconstruct edge sequence backwards.
	var edges []int
	for cur := best; parent[cur] != -1; cur = parent[cur] {
		edges = append(edges, parentEdge[cur])
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return pathFromEdges(g, src, edges), true
}

// pathFromEdges assembles the node-to-node path starting at src that
// traverses the given edges in order.
func pathFromEdges(g *graph.Graph, src int, edges []int) gpath.Path {
	p := gpath.OfNode(src)
	for _, ei := range edges {
		next, _ := gpath.Concat(g, p, gpath.Triple(g, ei))
		p = next
	}
	return p
}

// Options bound path enumeration and evaluation resources.
type Options struct {
	// MaxLen bounds path length (number of edges); 0 means unbounded.
	MaxLen int
	// Limit bounds the number of returned paths; 0 means unlimited.
	// Exceeding Limit truncates; exceeding the meter's rows budget errors.
	Limit int
	// Parallelism caps the number of worker goroutines used by per-source
	// fan-out; 0 means runtime.GOMAXPROCS(0), 1 forces the sequential path.
	Parallelism int
	// Plan is the evaluation strategy chosen by the cost-based planner
	// (direction, fan-out degree). The zero Plan is the historical
	// default: forward, Parallelism workers.
	Plan pg.Plan
	// Meter stops and charges the pair evaluators: the live instrument a
	// serving layer threads through every stage of one query so
	// cancellation and budgets are enforced query-globally. Nil means
	// unmetered.
	Meter *Meter
}

// Paths enumerates the set of node-to-node paths from src to dst matching R
// under the given mode:
//
//	All       every matching path (requires MaxLen or Limit: the set can
//	          be infinite, Section 6.3);
//	Shortest  every matching path of minimal length;
//	Simple    every matching simple path;
//	Trail     every matching trail.
//
// Paths are deduplicated (set semantics): two distinct automaton runs over
// the same graph path yield one result. Results are ordered by length, then
// by path key.
func Paths(g *graph.Graph, e rpq.Expr, src, dst int, mode Mode, opts Options) ([]gpath.Path, error) {
	p := CompileProduct(g, e)
	switch mode {
	case All:
		if opts.MaxLen <= 0 && opts.Limit <= 0 {
			return nil, ErrUnbounded
		}
		return enumerateAll(p, src, dst, opts), nil
	case Shortest:
		return enumerateShortest(p, src, dst, opts), nil
	case Simple:
		return enumerateRestricted(p, src, dst, opts, false), nil
	case Trail:
		return enumerateRestricted(p, src, dst, opts, true), nil
	default:
		return nil, fmt.Errorf("eval: unknown mode %v", mode)
	}
}

// sortPaths orders by length then key and applies the limit.
func sortPaths(paths []gpath.Path, limit int) []gpath.Path {
	sort.Slice(paths, func(i, j int) bool {
		if paths[i].Len() != paths[j].Len() {
			return paths[i].Len() < paths[j].Len()
		}
		return paths[i].Key() < paths[j].Key()
	})
	if limit > 0 && len(paths) > limit {
		paths = paths[:limit]
	}
	return paths
}

// enumerateAll walks the product depth-first up to the bounds, deduplicating
// graph paths.
func enumerateAll(p *Product, src, dst int, opts Options) []gpath.Path {
	maxLen := opts.MaxLen
	if maxLen <= 0 {
		// Limit-only enumeration: explore breadth-first by length so the
		// shortest Limit paths are found without unbounded recursion.
		return kShortestInternal(p, src, dst, opts.Limit)
	}
	seen := map[string]struct{}{}
	var out []gpath.Path
	var edges []int
	var dfs func(s State)
	dfs = func(s State) {
		if s.Node == dst && p.Accepting(s) {
			path := pathFromEdges(p.G, src, edges)
			k := path.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, path)
			}
		}
		if len(edges) == maxLen {
			return
		}
		for _, st := range p.Succ(s) {
			edges = append(edges, st.Edge)
			dfs(st.To)
			edges = edges[:len(edges)-1]
		}
	}
	dfs(p.Start(src))
	return sortPaths(out, opts.Limit)
}

// enumerateShortest finds d* = the minimal accepting distance, then walks
// only "tight" product edges (dist increases by exactly 1) to collect every
// shortest matching path.
func enumerateShortest(p *Product, src, dst int, opts Options) []gpath.Path {
	dist, _, _ := p.bfs(src)
	best := -1
	for q := 0; q < p.A.NumStates; q++ {
		id := p.id(State{Node: dst, State: q})
		if p.A.Accept[q] && dist[id] >= 0 && (best == -1 || dist[id] < best) {
			best = dist[id]
		}
	}
	if best == -1 {
		return nil
	}
	seen := map[string]struct{}{}
	var out []gpath.Path
	var edges []int
	var dfs func(s State)
	dfs = func(s State) {
		d := len(edges)
		if d == best {
			if s.Node == dst && p.Accepting(s) {
				path := pathFromEdges(p.G, src, edges)
				k := path.Key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, path)
				}
			}
			return
		}
		for _, st := range p.Succ(s) {
			// Tight edges only: every path of minimal total length visits
			// each product state exactly at its BFS distance (otherwise a
			// strictly shorter matching path would exist).
			if dist[p.id(st.To)] == d+1 {
				edges = append(edges, st.Edge)
				dfs(st.To)
				edges = edges[:len(edges)-1]
			}
		}
	}
	dfs(p.Start(src))
	return sortPaths(out, opts.Limit)
}

// enumerateRestricted backtracks over the product forbidding repeated nodes
// (simple) or repeated edges (trail). This search is worst-case exponential;
// deciding existence alone is NP-complete (Section 6.3 "Path Modes").
func enumerateRestricted(p *Product, src, dst int, opts Options, trail bool) []gpath.Path {
	seen := map[string]struct{}{}
	var out []gpath.Path
	var edges []int
	usedNodes := map[int]struct{}{}
	usedEdges := map[int]struct{}{}
	if !trail {
		usedNodes[src] = struct{}{}
	}
	limitHit := false
	var dfs func(s State)
	dfs = func(s State) {
		if limitHit {
			return
		}
		if s.Node == dst && p.Accepting(s) {
			path := pathFromEdges(p.G, src, edges)
			k := path.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, path)
				if opts.Limit > 0 && len(out) >= opts.Limit {
					limitHit = true
					return
				}
			}
		}
		if opts.MaxLen > 0 && len(edges) == opts.MaxLen {
			return
		}
		for _, st := range p.Succ(s) {
			if trail {
				if _, used := usedEdges[st.Edge]; used {
					continue
				}
				usedEdges[st.Edge] = struct{}{}
			} else {
				if _, used := usedNodes[st.To.Node]; used {
					continue
				}
				usedNodes[st.To.Node] = struct{}{}
			}
			edges = append(edges, st.Edge)
			dfs(st.To)
			edges = edges[:len(edges)-1]
			if trail {
				delete(usedEdges, st.Edge)
			} else {
				delete(usedNodes, st.To.Node)
			}
		}
	}
	dfs(p.Start(src))
	return sortPaths(out, 0)
}

// CountMatchingPaths returns the number of distinct paths of length ≤ maxLen
// from src to dst that match R. Following Section 6.2, the count is computed
// on the product with an unambiguous automaton (so that each graph path has
// at most one accepting run); if the Glushkov automaton is ambiguous it is
// determinized first.
func CountMatchingPaths(g *graph.Graph, e rpq.Expr, src, dst, maxLen int) *big.Int {
	a := rpq.Compile(e)
	if !a.IsUnambiguous() {
		a = a.Determinize().ToNFA()
	}
	p := NewProduct(g, a)
	n := p.NumStates()
	counts := make([]*big.Int, n)
	for i := range counts {
		counts[i] = new(big.Int)
	}
	counts[p.id(p.Start(src))].SetInt64(1)
	total := new(big.Int)
	addAccepting := func(cs []*big.Int) {
		for q := 0; q < p.A.NumStates; q++ {
			if p.A.Accept[q] {
				total.Add(total, cs[p.id(State{Node: dst, State: q})])
			}
		}
	}
	addAccepting(counts) // length-0 path
	for step := 1; step <= maxLen; step++ {
		next := make([]*big.Int, n)
		for i := range next {
			next[i] = new(big.Int)
		}
		for i, c := range counts {
			if c.Sign() == 0 {
				continue
			}
			for _, st := range p.Succ(p.unid(i)) {
				j := p.id(st.To)
				next[j].Add(next[j], c)
			}
		}
		counts = next
		addAccepting(counts)
	}
	return total
}

// KShortestWalks enumerates the k shortest matching paths from src to dst in
// nondecreasing length order (ties broken by path key). Unlike mode
// Shortest, it continues past the minimal length — the "k shortest paths"
// direction of Section 7.1 (Eppstein). Paths may repeat nodes and edges.
func KShortestWalks(g *graph.Graph, e rpq.Expr, src, dst, k int) []gpath.Path {
	return kShortestInternal(CompileProduct(g, e), src, dst, k)
}

func kShortestInternal(p *Product, src, dst, k int) []gpath.Path {
	if k <= 0 {
		return nil
	}
	// Lazy best-first search with a per-product-state pop budget of k: the
	// classical k-shortest-walks scheme. A binary heap orders partial paths
	// by (length, key-so-far) for deterministic output.
	type item struct {
		state State
		edges []int
	}
	less := func(a, b item) bool {
		if len(a.edges) != len(b.edges) {
			return len(a.edges) < len(b.edges)
		}
		for i := range a.edges {
			if a.edges[i] != b.edges[i] {
				return a.edges[i] < b.edges[i]
			}
		}
		return false
	}
	var heap []item
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if less(heap[i], heap[parent]) {
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			} else {
				break
			}
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				break
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
		return top
	}

	pops := make(map[int]int)
	seen := map[string]struct{}{}
	var out []gpath.Path
	push(item{state: p.Start(src)})
	for len(heap) > 0 && len(out) < k {
		it := pop()
		id := p.id(it.state)
		if pops[id] >= k {
			continue
		}
		pops[id]++
		if it.state.Node == dst && p.Accepting(it.state) {
			path := pathFromEdges(p.G, src, it.edges)
			key := path.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				out = append(out, path)
				if len(out) == k {
					break
				}
			}
		}
		for _, st := range p.Succ(it.state) {
			ext := make([]int, len(it.edges)+1)
			copy(ext, it.edges)
			ext[len(it.edges)] = st.Edge
			push(item{state: st.To, edges: ext})
		}
	}
	return out
}

// ExistsMode reports whether some path from src to dst matching R exists
// under the given mode. For All and Shortest this is plain product
// reachability (polynomial); for Simple and Trail it is the NP-complete
// problem of Section 6.3, decided by backtracking with early exit.
func ExistsMode(g *graph.Graph, e rpq.Expr, src, dst int, mode Mode) bool {
	switch mode {
	case All, Shortest:
		return Check(g, e, src, dst)
	case Simple, Trail:
		p := CompileProduct(g, e)
		paths := enumerateRestricted(p, src, dst, Options{Limit: 1}, mode == Trail)
		return len(paths) > 0
	default:
		return false
	}
}
