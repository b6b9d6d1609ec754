package eval

import (
	"context"
	"math"
	"slices"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Pairs computes ⟦R⟧_G = {(u,v) | some path from u to v matches R}
// (Section 3.1.1), via product-graph sweeps from every source node (see
// PairsProductEmit). Results are sorted lexicographically.
func Pairs(g *graph.Graph, e rpq.Expr) [][2]int {
	return PairsOpt(g, e, Options{})
}

// PairsOpt is Pairs with explicit options (the fan-out degree). It is
// unmetered (opts.Meter is ignored), so it cannot fail.
func PairsOpt(g *graph.Graph, e rpq.Expr, opts Options) [][2]int {
	opts.Meter = nil
	out, _ := PairsProduct(CompileProduct(g, e), opts)
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
		workers = pg.Workers(opts.Parallelism)
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

// Options bound evaluation resources.
type Options struct {
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
	Meter *pg.Meter
}
