package pg_test

// Micro-benchmark of small sweeps: all sources of a single-label clique
// under a a*, where a sweep is a few dozen states and the loop's per-sweep
// and per-level fixed costs are what is measured.

import (
	"fmt"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/gen"
	"graphquery/internal/pg"
)

func cliqueKernel(b *testing.B, k int) *pg.Kernel {
	b.Helper()
	g := gen.Clique(k, "a")
	// a a* — the E15 clique query.
	a := &automata.NFA{
		NumStates: 2,
		Start:     0,
		Accept:    []bool{false, true},
		Trans: [][]automata.Transition{
			{{Guard: automata.GuardLabel("a"), To: 1}},
			{{Guard: automata.GuardLabel("a"), To: 1}},
		},
	}
	return pg.NewKernel(g, pg.FromNFA(g, a), nil)
}

func BenchmarkKernelScan(b *testing.B) {
	for _, k := range []int{32, 64} {
		kern := cliqueKernel(b, k)
		sc := kern.NewScratch()
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for u := 0; u < k; u++ {
					if _, err := kern.Sweep(u, sc, nil, pg.Plan{}, false); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
