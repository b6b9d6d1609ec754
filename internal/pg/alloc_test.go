//go:build !race

package pg_test

// Allocation-count regressions are excluded from -race runs: the
// detector's own instrumentation allocates, so the counts only mean
// anything in a plain build.

import (
	"runtime"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// TestScratchPoolWarmSweepAllocs is the alloc regression: a warm
// GetScratch → sweep → PutScratch cycle must not allocate (the unsharded
// sweep runs inline, with no goroutines).
func TestScratchPoolWarmSweepAllocs(t *testing.T) {
	g := gen.Clique(24, "a")
	kern, _ := sweepKernels(t, g, "a a*")
	sweep := func() {
		sc := kern.GetScratch()
		if _, err := kern.Sweep(0, sc, nil, pg.Plan{}, true); err != nil {
			t.Fatal(err)
		}
		kern.PutScratch(sc)
	}
	// Warm the pool and every internal buffer first.
	for i := 0; i < 3; i++ {
		sweep()
	}
	if allocs := testing.AllocsPerRun(50, sweep); allocs >= 1 {
		t.Fatalf("warm sweep allocates %.1f times per run, want 0", allocs)
	}
}

// TestWarmBatchAllocatesOnlyItsResult: the batched loop's slabs, lists and
// frontier recycle through the package's pool, so one more batch in an
// all-sources evaluation costs its result and nothing else — the runs, four
// bytes a pair plus a header of two words per source, in at most two
// allocations. (158 nodes make that batch's result 40 960 bytes, a whole
// number of pages: the allocator rounds a large object up to one, which on
// another size would be counted against the batch.)
func TestWarmBatchAllocatesOnlyItsResult(t *testing.T) {
	const nodes = 158
	kern, _ := sweepKernels(t, gen.Clique(nodes, "a"), "a a*")
	cost := func(sources int) (allocs, bytes float64) {
		srcs := make([]int, sources)
		for i := range srcs {
			srcs[i] = i
		}
		from := func() {
			err := kern.SweepFrom(srcs, 1, nil, pg.Plan{}, true, func(pg.Runs) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			from()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, from)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
	}
	twoAllocs, twoBytes := cost(72)      // batches of 8 and 64 sources
	threeAllocs, threeBytes := cost(136) // and one more of 64
	const pairs = 64 * nodes
	if n, b := threeAllocs-twoAllocs, threeBytes-twoBytes; n < 1 || n > 2 || b > 4*pairs+1024 {
		t.Fatalf("a warm batch of %d pairs allocates %.1f times, %.0f bytes; want at most 2 times, %d bytes", pairs, n, b, 4*pairs+1024)
	}
}

// TestFreshKernelAnchoredSweepStaysSmall pins the cold-kernel regime: a
// kernel compiled for one anchored read — every plan is, after a commit —
// sweeps a handful of states from the anchor, so kernel, scratch and sweep
// together must stay O(automaton) plus bitsets — far below the per-label
// neighbor tables, which take about a word per edge and are built on the
// graph's chain only out of rent such sweeps have paid (|N| + |E_label|).
func TestFreshKernelAnchoredSweepStaysSmall(t *testing.T) {
	g := gen.ScaleFree(20000, 4, 1)
	nfa := rpq.Compile(rpq.MustParse("a a"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kern := pg.NewKernel(g, pg.FromNFA(g, nfa), nil)
	if _, err := kern.Sweep(17, kern.GetScratch(), nil, pg.Plan{}, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// One byte per edge is an eighth of the tables' word per edge.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(g.NumEdges()); got > limit {
		t.Fatalf("fresh kernel + one anchored sweep allocated %d bytes, want under %d (|E| bytes)", got, limit)
	}
}
