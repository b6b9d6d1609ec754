//go:build !race

package core

// Allocation-count regressions are excluded from -race runs: the
// detector's own instrumentation allocates, so the counts only mean
// anything in a plain build.

import (
	"context"
	"runtime"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/lrpq"
)

// TestWarmQueryAllocs is the satellite alloc regression at the engine
// level: with the plan cached and the kernel's scratch pool warm, a
// repeated Pairs query must not reallocate the O(product-states) sweep
// buffers — the per-run allocation count stays flat and small (result
// assembly still allocates its output slices).
func TestWarmQueryAllocs(t *testing.T) {
	e := New(gen.Clique(8, "a"))
	e.Parallelism = 1
	warm := func() {
		if _, err := e.Pairs("a a*"); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	// One batch of 8 sources: its runs, the result slices, the source
	// windows. It reads 21; the bound catches per-query scratch
	// reallocation (~3 per source: visited + emitted + queue) immediately.
	if allocs > 27 {
		t.Fatalf("warm cached query allocates %.0f times per run, want ≤ 27 (scratch pool not reused?)", allocs)
	}
}

// TestStreamedPairsAllocs: a warm streamed all-pairs query allocates per
// batch and per sink buffer, not per row. `a*` over a 200-edge path is
// 20 301 rows in 5 batches (8 sources, then 64 at a time); when every
// pair was boxed into a [2]string for Sink.Row the same query cost two
// allocations a row.
func TestStreamedPairsAllocs(t *testing.T) {
	e := New(gen.APath(200, "a"))
	e.Parallelism = 1
	sink := &byteSink{}
	run := func() {
		sink.rows = 0
		if _, err := e.QueryStream(context.Background(), Request{Query: "a*"}, sink); err != nil {
			t.Fatal(err)
		}
		if sink.rows != 201*202/2 {
			t.Fatalf("streamed %d rows, want %d", sink.rows, 201*202/2)
		}
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 40 {
		t.Fatalf("warm streamed a* allocates %.0f times per run for %d rows, want ≤ 40 (it reads 31: O(batches), not O(rows))", allocs, sink.rows)
	}
}

// TestWarmCRPQAllocs: a warm CRPQ allocates its relations and its output,
// nothing per tuple and, for an atom anchored at a constant, nothing
// proportional to the graph. The anchored one-hop read is the median op of
// bench/'s short-reads; the reference evaluator spent 186 kB on it, 156 kB
// of that a list of all 20 000 nodes it never read. The four-cycle is
// cyclic-crpq's costliest text: 52 MB and 0.9 M allocations through the
// reference's tuple-at-a-time joins, to return 140 rows; it sweeps a once
// for its three a atoms and reads 110 kB. The triangle with an a a side
// holds the largest relation of the workload (680 kB).
func TestWarmCRPQAllocs(t *testing.T) {
	for _, c := range []struct {
		name, query string
		nodes       int
		maxBytes    uint64
	}{
		{"one-hop", "q(y) :- a(@n100, y)", 20000, 24 << 10},
		{"four-cycle", "q(x,y,z,w) :- a(x,y), a(y,z), a(z,w), b(w,x)", 800, 200 << 10},
		{"triangle-aa", "q(x,y,z) :- a a(x,y), a(y,z), a(z,x)", 800, 900 << 10},
	} {
		e := New(gen.ScaleFree(c.nodes, 4, 1))
		e.Parallelism = 1
		run := func() {
			res, err := e.Rows(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s: no rows", c.name)
			}
		}
		run()
		run()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > c.maxBytes {
			t.Errorf("%s: warm query allocates %d B/op, want ≤ %d", c.name, perOp, c.maxBytes)
		}
	}
}

// TestWarmShortestAllocs: an anchored shortest-path query allocates what it
// touches — the search's discoveries, the shortest-path DAG, the paths —
// and nothing proportional to the graph. `a*` to a target five hops away
// on the short-reads graph is bench/'s shortest op; the full product BFS it
// replaced filled a fresh |N|·|Q| distance array per request, 915 kB. Warm,
// the search's tables come back from the cached kernel's pool; the one-shot
// lrpq.EvalBetween (bench/'s oracle and trace, the CRPQ reference) compiles
// a kernel per call and still stays far under the graph's size.
func TestWarmShortestAllocs(t *testing.T) {
	g := gen.ScaleFree(20000, 4, 1)
	e := New(g)
	// n138 is five a-edges from n17 and no fewer.
	const from, to = "n17", "n138"
	u, v := g.MustNode(from), g.MustNode(to)
	expr := lrpq.MustParse("a*")
	perOp := func(run func() int) uint64 {
		t.Helper()
		for i := 0; i < 2; i++ {
			if n := run(); n != 5 {
				t.Fatalf("shortest %s→%s has %d edges, want 5", from, to, n)
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	warm := perOp(func() int {
		paths, err := e.Paths("a*", from, to, eval.Shortest)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%d paths, err %v", len(paths), err)
		}
		return paths[0].Path.Len()
	})
	if warm > 32<<10 {
		t.Errorf("warm shortest query allocates %d B/op, want ≤ 32 kB", warm)
	}
	oneShot := perOp(func() int {
		pbs, err := lrpq.EvalBetween(g, expr, u, v, eval.Shortest, lrpq.Options{})
		if err != nil || len(pbs) == 0 {
			t.Fatalf("%d paths, err %v", len(pbs), err)
		}
		return pbs[0].Path.Len()
	})
	if oneShot > 64<<10 {
		t.Errorf("one-shot lrpq.EvalBetween allocates %d B/op, want ≤ 64 kB", oneShot)
	}
	t.Logf("warm %d B/op, one-shot %d B/op", warm, oneShot)
}
