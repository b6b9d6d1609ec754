//go:build !race

package core

// Allocation-count regressions are excluded from -race runs: the
// detector's own instrumentation allocates, so the counts only mean
// anything in a plain build.

import (
	"context"
	"testing"

	"graphquery/internal/gen"
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
	// 8 sources × a few result-slice allocations each; the bound has >2x
	// headroom but catches per-query scratch reallocation (~3 per source:
	// visited + emitted + queue) immediately.
	if allocs > 60 {
		t.Fatalf("warm cached query allocates %.0f times per run, want ≤ 60 (scratch pool not reused?)", allocs)
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
	if allocs := testing.AllocsPerRun(20, run); allocs > 100 {
		t.Fatalf("warm streamed a* allocates %.0f times per run for %d rows, want ≤ 100 (O(batches), not O(rows))", allocs, sink.rows)
	}
}
