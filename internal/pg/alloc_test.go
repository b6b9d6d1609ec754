//go:build !race

package pg_test

// Allocation-count regressions are excluded from -race runs: the
// detector's own instrumentation allocates, so the counts only mean
// anything in a plain build.

import (
	"runtime"
	"slices"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// TestScratchPoolWarmSweepAllocs is the alloc regression: a warm
// GetScratch → sweep → PutScratch cycle must not allocate (the sweep runs
// inline on the calling goroutine and returns a slice of its own state).
func TestScratchPoolWarmSweepAllocs(t *testing.T) {
	g := gen.Clique(24, "a")
	kern, _ := sweepKernels(t, g, "a a*")
	sweep := func() {
		sc := kern.GetScratch()
		if _, err := kern.Sweep(0, sc, nil, true); err != nil {
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

// TestWarmBatchAllocatesOnlyItsResult: the batched loop's map, slabs,
// lists and frontier recycle through the package's pool, so one more batch
// in an all-sources evaluation costs its result and nothing else — the
// runs, four bytes a pair plus a header of two words per source, in at most
// two allocations — whether it moves onto the flat slabs (the clique) or
// stays on the compact map (the path). (158 nodes make the clique batch's
// result 40 960 bytes, a whole number of pages: the allocator rounds a
// large object up to one, which on another size would be counted against
// the batch.)
func TestWarmBatchAllocatesOnlyItsResult(t *testing.T) {
	// testing.AllocsPerRun runs at GOMAXPROCS 1, and a change of GOMAXPROCS
	// drops the batch pool's per-P caches: set it here, so that the calls
	// inside the window get the warm batch the warm-up left, not a fresh one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, fx := range []struct {
		name  string
		g     *graph.Graph
		query string
		pairs int  // of the third window's 64 sources
		flat  bool // whether that batch moves onto the flat slabs
	}{
		{"clique-158", gen.Clique(158, "a"), "a a*", 64 * 158, true},
		{"path-300", gen.APath(300, "a"), "a a", 64, false},
	} {
		kern, _ := sweepKernels(t, fx.g, fx.query)
		cost := func(sources int) (allocs, bytes float64) {
			srcs := make([]int, sources)
			for i := range srcs {
				srcs[i] = i
			}
			from := func() {
				err := kern.SweepFrom(srcs, 1, nil, true, func(pg.Runs) error { return nil })
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
		if n, b := threeAllocs-twoAllocs, threeBytes-twoBytes; n < 1 || n > 2 || b > float64(4*fx.pairs+1024) {
			t.Fatalf("%s: a warm batch of %d pairs allocates %.1f times, %.0f bytes; want at most 2 times, %d bytes", fx.name, fx.pairs, n, b, 4*fx.pairs+1024)
		}
		// Checked after the measurement: these sweeps pay rent, which would
		// move the kernel's purchase of a neighbor table into its window.
		srcs := make([]int, 136)
		for i := range srcs {
			srcs[i] = i
		}
		if flatAt, _, err := pg.BatchShapes(kern, srcs); err != nil || len(flatAt) != 3 || (flatAt[2] >= 0) != fx.flat {
			t.Fatalf("%s: windows moved onto the flat slabs at %v (%v): the fixture no longer has its side", fx.name, flatAt, err)
		}
	}
}

// TestSparseBatchAllocatesNoStateArray: a batch pays for the product states
// it touches, not for the product. Eleven b steps on ScaleFree(20000) are a
// 12-state automaton — 240 000 product states, 3.8 MB of flat slabs — and a
// batch of 64 sources that have a b edge touches a few hundred of them. Drawn
// from an empty pool (two collections empty it), that batch must allocate
// fewer bytes than the product has states: acc's word per node and what it
// touched, and no array with an entry per product state.
func TestSparseBatchAllocatesNoStateArray(t *testing.T) {
	g := gen.ScaleFree(20000, 4, 42)
	kern, _ := sweepKernels(t, g, "b b b b b b b b b b b")
	lb, _ := g.LabelID("b")
	var srcs []int
	for u := 0; len(srcs) < 64; u++ {
		if len(g.OutWithLabel(u, lb)) > 0 {
			srcs = append(srcs, u)
		}
	}
	sweep := func() {
		if err := kern.SweepFrom(srcs, 1, nil, true, func(pg.Runs) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // rents or buys the kernel's tables
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(kern.NumProductStates()); got >= limit {
		t.Fatalf("a sparse batch from an empty pool allocated %d bytes, want under %d (a byte per product state)", got, limit)
	}
	// Checked after the measurement, whose rent these sweeps would move.
	if flatAt, _, err := pg.BatchShapes(kern, srcs); err != nil || slices.ContainsFunc(flatAt, func(at int) bool { return at >= 0 }) {
		t.Fatalf("windows moved onto the flat slabs at %v (%v): the fixture is not sparse", flatAt, err)
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
	if _, err := kern.Sweep(17, kern.GetScratch(), nil, false); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// One byte per edge is an eighth of the tables' word per edge.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(g.NumEdges()); got > limit {
		t.Fatalf("fresh kernel + one anchored sweep allocated %d bytes, want under %d (|E| bytes)", got, limit)
	}
}
