package pg_test

// Benchmarks for the sweep loop on scale-free graphs in the dense-guard
// regime: (!{b})* matches ~15/16 of all edges, so the comparison isolates
// what sharding buys on top of the compiled per-label tables, bitset
// visited sets, and the direction-optimizing switch. The graph is built
// once per process and shared across sub-benchmarks; parameters match the
// gen catalog's scalefree-N entry (m=4, seed 42) so serving-layer numbers
// line up with these.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

var scaleFreeCache sync.Map // n -> *graph.Graph

func scaleFreeGraph(n int) *graph.Graph {
	if g, ok := scaleFreeCache.Load(n); ok {
		return g.(*graph.Graph)
	}
	g := gen.ScaleFree(n, 4, 42)
	scaleFreeCache.Store(n, g)
	return g
}

func BenchmarkKernelSweep(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		g := scaleFreeGraph(n)
		kern, _ := sweepKernels(b, g, "(!{b})*")
		// Fixed sources spanning the degree distribution: early nodes are
		// the preferential-attachment hubs, late nodes are the periphery.
		srcs := []int{0, 1, n / 2, n - 1}
		run := func(name string, pl pg.Plan, mt *pg.Meter) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				sc := kern.NewScratch()
				want := -1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total := 0
					for _, u := range srcs {
						vs, err := kern.Sweep(u, sc, mt, pl, true)
						if err != nil {
							b.Fatal(err)
						}
						total += len(vs)
					}
					if want == -1 {
						want = total
					} else if total != want {
						b.Fatalf("result drifted across iterations: %d != %d", total, want)
					}
				}
			})
		}
		run("unsharded", pg.Plan{}, nil)
		run("sharded-2", pg.Plan{Shards: 2}, nil)
		run("sharded-8", pg.Plan{Shards: 8}, nil)
		// The same sweep with the EXPLAIN ANALYZE telemetry sink attached:
		// recording happens only at sweep exits and level barriers, so this
		// should sit within noise of its bare counterpart.
		ss := &pg.SweepStats{}
		run("analyze", pg.Plan{}, pg.NewMeter(context.Background(), pg.Budget{}, nil, ss))
	}
}

// BenchmarkKernelSweepClique is the EXPERIMENTS.md clique-300 row: the
// all-pairs a* a* a* sweep. The clique converges in two levels, so the
// direction switch retires almost the whole product bottom-up.
func BenchmarkKernelSweepClique(b *testing.B) {
	const k = 300
	g := gen.Clique(k, "a")
	kern, _ := sweepKernels(b, g, "a* a* a*")
	for name, pl := range map[string]pg.Plan{"unsharded": {}, "sharded-2": {Shards: 2}} {
		b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
			sc := kern.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < k; u++ {
					if _, err := kern.Sweep(u, sc, nil, pl, true); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
