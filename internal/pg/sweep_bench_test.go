package pg_test

// Benchmarks for the single-source sweep loop on scale-free graphs in the
// dense-guard regime: (!{b})* matches ~15/16 of all edges, so a sweep from
// any source reaches most of the product and runs the compiled per-label
// tables, the bitset visited sets and the direction-optimizing switch at
// full size. The graph is built once per process and shared across
// sub-benchmarks; parameters match the gen catalog's scalefree-N entry
// (m=4, seed 42) so serving-layer numbers line up with these.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
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
		run := func(name string, mt *pg.Meter) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				sc := kern.NewScratch()
				want := -1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					total := 0
					for _, u := range srcs {
						vs, err := kern.Sweep(u, sc, mt, true)
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
		run("unsharded", nil)
		// The same sweep with the EXPLAIN ANALYZE telemetry sink attached:
		// recording happens only at sweep exits and level barriers, so this
		// should sit within noise of its bare counterpart.
		ss := &pg.SweepStats{}
		run("analyze", pg.NewMeter(context.Background(), pg.Budget{}, nil, ss))
	}
}

// BenchmarkKernelSweepClique is the EXPERIMENTS.md clique-300 row: the
// all-pairs a* a* a* sweep. The clique converges in two levels, so the
// direction switch retires almost the whole product bottom-up.
func BenchmarkKernelSweepClique(b *testing.B) {
	const k = 300
	g := gen.Clique(k, "a")
	kern, _ := sweepKernels(b, g, "a* a* a*")
	b.Run(fmt.Sprintf("unsharded/k=%d", k), func(b *testing.B) {
		sc := kern.NewScratch()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := 0; u < k; u++ {
				if _, err := kern.Sweep(u, sc, nil, true); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepAll is the kernel-layer face of the all-pairs kinds: every
// source of one graph through the all-sources driver on one worker
// (64 sources per machine word share one edge scan, and a starred call with
// enough batches runs on the product's condensation) beside the loop it
// replaced ("per-source": one Sweep per source, pairs built the same way —
// what every all-pairs evaluator ran before, and still the oracle the
// differential tests hold the driver to; left out where it would take
// minutes). The driver runs twice: "batched-warm" calls one kernel over and
// over, as a cached plan is, so a call that condenses runs every batch on
// the condensation the first call kept; "batched-cold" calls a fresh kernel
// each op, as the first query after a commit does, so a call that condenses
// rents batch 0 on the level loop and builds — the rows the rent-then-buy
// rule is measured on. What each row measures:
//
//   - scalefree-800 `a* z a` is the served benchmark's allpairs-sweep shape,
//     scalefree-20000 the same at the size of its short-reads graph: a giant
//     strongly connected core that every batch after the first crosses in
//     one pop instead of once per arrival level.
//
//   - grid-20x20, path-700 and cycle-2000 `a*` are the big-results shapes.
//     The level loop shares nothing on a path or a cycle — every source
//     sits on a distinct node at every level, 246 k one-bit frontier
//     entries a batch on the path — so these rows measured the
//     word-per-state bookkeeping; condensed, a batch is one pass over 700
//     components in rank order (the path) or one pop (the cycle), and the
//     rows measure batch.pairs.
//
//   - clique-300 `a* a* a*` is the dense-reachability shape and the build's
//     worst case: every product edge is written down to find three
//     components. It has five batches after the first, one too few to buy,
//     and measures the level loop; clique-330 has six, buys, and its cold
//     row must not lose to it.
//
//   - sparse-star is `b*` where one edge in sixteen is a b: batch 0
//     discovers a handful of states, the 20 000 start states alone are more
//     than that, and the call must stay on the level loop at no cost.
//
//   - label-pairs is `b b b` on the same graph, the selective all-pairs text of
//     short-reads: three nodes in four have no b edge, are charged their start
//     state and never seeded, and the rest run 64 to a batch — batches/op
//     reads 68 where one batch per 64 nodes was 313. label-pairs-ba is `b a`,
//     the automaton of short-reads' cypher text `-[:b]->-[:a]->`. A batch of
//     either touches a few hundred product states and stays on its compact
//     map; the rows above it go onto the flat slabs within a level or two.
//
//   - crpq-a and crpq-aa are the atoms `a` and `a a` of cyclic-crpq's
//     triangles on its catalog graph, scalefree-800: every node with an a
//     edge moves, and the last state of either is the accepting sink.
//
// edges/op is adjacency entries examined per all-pairs evaluation — for a
// cold condensed call batch 0's and the build's, plus the DAG edges each
// later batch examined; for a warm one the DAG edges alone; batches/op is
// the batches that had a source to sweep; held/op, on the rows whose every
// batch runs the level loop, is the product states those batches kept in
// their map or slabs — what a batch pays for besides its acc word per node.
// A state with no transition out that is the only accepting one is not kept
// (its acc bit is its seen bit), so `b a`, `b b b`, `a` and `a a` hold only
// the states before their last step.
func BenchmarkSweepAll(b *testing.B) {
	named := func(b *testing.B, name string) *graph.Graph {
		g, err := gen.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	withZ := func(g *graph.Graph) *graph.Graph {
		z := make([]graph.Mutation, 4)
		for i := range z {
			z[i] = graph.Mutation{Op: graph.MutAddEdge, ID: fmt.Sprintf("z%d", i), Label: "z",
				Src: fmt.Sprintf("n%d", i), Tgt: fmt.Sprintf("n%d", 400+i)}
		}
		g, err := g.Apply(z)
		if err != nil {
			b.Fatal(err)
		}
		if g, err = g.Materialize(); err != nil {
			b.Fatal(err)
		}
		return g
	}
	for _, row := range []struct {
		name      string
		g         *graph.Graph
		query     string
		perSource bool
	}{
		{"scalefree-800", withZ(gen.ScaleFree(800, 4, 42)), "a* z a", true},
		{"clique-300", gen.Clique(300, "a"), "a* a* a*", true},
		{"clique-330", gen.Clique(330, "a"), "a* a* a*", false},
		{"grid-20x20", gen.Grid(20, 20, "a"), "a*", true},
		{"path-700", gen.APath(700, "a"), "a*", true},
		{"cycle-2000", gen.Cycle(2000, "a"), "a*", true},
		{"sparse-star", scaleFreeGraph(20000), "b*", false},
		{"label-pairs", scaleFreeGraph(20000), "b b b", false},
		{"label-pairs-ba", scaleFreeGraph(20000), "b a", false},
		{"scalefree-20000", withZ(scaleFreeGraph(20000)), "a* z a", false},
		{"crpq-a", named(b, "scalefree-800"), "a", false},
		{"crpq-aa", named(b, "scalefree-800"), "a a", false},
	} {
		expr, err := rpq.Parse(row.query)
		if err != nil {
			b.Fatal(err)
		}
		var c pg.Counters
		nfa := rpq.Compile(expr)
		kern := pg.NewKernel(row.g, pg.FromNFA(row.g, nfa), &c)
		held, levelLoop, err := pg.LevelHeld(pg.NewKernel(row.g, pg.FromNFA(row.g, nfa), nil))
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, all func(b *testing.B) (int, error)) {
			b.Run(row.name+"/"+name, func(b *testing.B) {
				want, err := all(b) // also buys the neighbor tables
				if err != nil {
					b.Fatal(err)
				}
				before := c.Snapshot()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got, err := all(b); err != nil || got != want {
						b.Fatalf("got (%d, %v), want %d pairs", got, err, want)
					}
				}
				after := c.Snapshot()
				b.ReportMetric(float64(after.EdgesScanned-before.EdgesScanned)/float64(b.N), "edges/op")
				if name != "per-source" {
					b.ReportMetric(float64(after.BatchesRun-before.BatchesRun)/float64(b.N), "batches/op")
					if levelLoop {
						b.ReportMetric(float64(held), "held/op")
					}
				}
			})
		}
		sweepAll := func(kern *pg.Kernel) (int, error) {
			pairs := 0
			err := kern.SweepAll(1, nil, true, func(part pg.Runs) error {
				pairs += part.Len()
				return nil
			})
			return pairs, err
		}
		if row.perSource {
			run("per-source", func(*testing.B) (int, error) {
				sc := kern.GetScratch()
				defer kern.PutScratch(sc)
				pairs := 0
				for u := 0; u < row.g.NumNodes(); u++ {
					vs, err := kern.Sweep(u, sc, nil, true)
					if err != nil {
						return 0, err
					}
					part := pg.NewRuns(1, len(vs))
					for i, v := range vs {
						part.Tgt[i] = int32(v)
					}
					pairs += part.Len()
				}
				return pairs, nil
			})
		}
		run("batched-warm", func(*testing.B) (int, error) { return sweepAll(kern) })
		run("batched-cold", func(b *testing.B) (int, error) {
			b.StopTimer()
			fresh := pg.NewKernel(row.g, pg.FromNFA(row.g, nfa), &c)
			b.StartTimer()
			return sweepAll(fresh)
		})
	}
}
