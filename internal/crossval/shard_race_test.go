package crossval_test

// Race coverage for sharded sweeps: `make ci` runs this
// package under -race (the `race` target is `go test -race ./...`), so
// concurrent sweeps forcing shards > 1 exercise the per-level shard
// goroutines, the outbox exchange, and the frozen-frontier bottom-up reads
// under the detector.

import (
	"reflect"
	"sync"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

func TestShardedQueriesConcurrently(t *testing.T) {
	g := gen.ScaleFree(600, 3, 11)
	for _, q := range []string{"a*", "(!{b})*"} {
		expr, err := rpq.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		nfa := rpq.Compile(expr)
		kern := eval.NewProduct(g, nfa).Kernel()
		sweepAll := func(pl pg.Plan) [][]int {
			sc := kern.NewScratch()
			out := make([][]int, g.NumNodes())
			for u := range out {
				vs, err := kern.Sweep(u, sc, nil, pl, false)
				if err != nil {
					t.Error(err)
				}
				out[u] = append([]int(nil), vs...)
			}
			return out
		}
		want := sweepAll(pg.Plan{})
		const goroutines = 8
		got := make([][][]int, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// One shared immutable kernel, every sweep sharded ×4: the
				// shard goroutines of concurrent sweeps interleave freely.
				// Sweep directly — the all-sources driver batches, and a
				// batch does not shard.
				got[i] = sweepAll(pg.Plan{Shards: 4})
			}(i)
		}
		wg.Wait()
		for i := range got {
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%q goroutine %d: sharded result diverged from the unsharded one", q, i)
			}
		}
	}
}
