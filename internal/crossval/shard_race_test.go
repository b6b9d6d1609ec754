package crossval_test

// Race coverage for sharded sweeps: `make ci` runs this
// package under -race (the `race` target is `go test -race ./...`), so
// concurrent queries forcing shards > 1 exercise the per-level shard
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
		p := eval.NewProduct(g, nfa)
		want := eval.PairsProduct(p, eval.Options{})
		const goroutines = 8
		got := make([][][2]int, goroutines)
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// One shared immutable Product, every query sharded ×4: the
				// shard goroutines of concurrent sweeps interleave freely.
				got[i] = eval.PairsProduct(p, eval.Options{
					Plan: pg.Plan{Shards: 4, Workers: 1},
				})
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
