package graphquery

// BenchmarkE15_UnifiedKernel measures all-pairs product evaluation on the
// two adversarial graph families of the paper: Figure 5 diamond chains
// (exponentially many shortest paths over a long thin product) and
// k-cliques (dense products where every state fans out to every node).
// The benchmark pins the per-source kernel loop, so pre/post numbers for
// the unified product-graph runtime (internal/pg) are directly comparable;
// EXPERIMENTS.md records both sides.

import (
	"context"
	"fmt"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

func BenchmarkE15_UnifiedKernel(b *testing.B) {
	cases := []struct {
		name  string
		g     *graph.Graph
		query string
	}{
		{"diamond/n=128", gen.Figure5(128), "a*"},
		{"diamond/n=512", gen.Figure5(512), "a*"},
		{"clique/k=32", gen.Clique(32, "a"), "a a*"},
		{"clique/k=64", gen.Clique(64, "a"), "a a*"},
	}
	for _, tc := range cases {
		nfa := rpq.Compile(rpq.MustParse(tc.query))
		b.Run(tc.name, func(b *testing.B) {
			want := -1
			for i := 0; i < b.N; i++ {
				prs := eval.PairsCompiled(tc.g, nfa, eval.Options{Parallelism: 1})
				if want == -1 {
					want = len(prs)
				} else if len(prs) != want {
					b.Fatalf("got %d pairs, want %d", len(prs), want)
				}
			}
			if want <= 0 {
				b.Fatal("no pairs")
			}
		})
	}
	// The same sweeps under a serving-layer meter, with and without a live
	// obs.Progress attached. "metered" is what every admitted query already
	// pays (cancelable context, amortized tick); "progress" adds the
	// introspection mirror — the cost of being visible in GET /v1/queries;
	// "analyze" adds the sweep-telemetry sink of EXPLAIN ANALYZE, recorded
	// only at sweep exits and level barriers. EXPERIMENTS.md records the
	// metered→progress and metered→analyze deltas (±5% acceptance); the
	// bare cases above keep the unmetered kernel floor comparable across
	// PRs — "metered" with analyze off is the pinned analyze-off guard.
	for _, variant := range []struct {
		name    string
		prog    bool
		analyze bool
	}{{"metered", false, false}, {"progress", true, false}, {"analyze", false, true}} {
		for _, tc := range cases {
			nfa := rpq.Compile(rpq.MustParse(tc.query))
			b.Run(variant.name+"/"+tc.name, func(b *testing.B) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				want := -1
				for i := 0; i < b.N; i++ {
					var p *obs.Progress
					if variant.prog {
						p = &obs.Progress{}
					}
					var ss *eval.SweepStats
					if variant.analyze {
						ss = &eval.SweepStats{}
					}
					m := pg.NewMeter(ctx, eval.Budget{}, p, ss)
					prs, err := eval.PairsProductCtx(ctx, eval.NewProduct(tc.g, nfa),
						eval.Options{Parallelism: 1, Meter: m})
					if err != nil {
						b.Fatal(err)
					}
					if want == -1 {
						want = len(prs)
					} else if len(prs) != want {
						b.Fatalf("got %d pairs, want %d", len(prs), want)
					}
				}
				if want <= 0 {
					b.Fatal("no pairs")
				}
			})
		}
	}
	// The same families through the engine's unified dispatch (plan cache
	// warm), quantifying planner + dispatch overhead on top of the kernel.
	g := gen.Clique(32, "a")
	e := NewEngine(g)
	if _, err := e.Pairs("a a*"); err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("engine/clique/k=%d", 32), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Pairs("a a*"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
