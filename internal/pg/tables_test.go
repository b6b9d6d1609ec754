package pg

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/rpq"
)

// TestSweepIdenticalAcrossTableCompilation: the neighbor tables are a pure
// speedup. The same source swept on a fresh kernel (renting the graph's
// label index) and again after the kernel bought its tables returns
// byte-identical nodes, counter deltas and analyze telemetry — sharded or
// not — and four workers crossing the rent-or-buy point concurrently, each
// sweeping every source, all see the same answers. `go test -race` runs the
// crossing under the detector.
func TestSweepIdenticalAcrossTableCompilation(t *testing.T) {
	g := gen.ScaleFree(400, 3, 7)
	const src = 3
	for _, q := range []string{"(a | b)+", "a b* a", "(!{b})* a"} {
		nfa := rpq.Compile(rpq.MustParse(q))
		for _, shards := range []int{1, 2} {
			c := &Counters{}
			k := NewKernel(g, FromNFA(g, nfa), c)
			pl := Plan{Shards: shards}
			// measure sweeps src once and returns everything observable.
			measure := func() ([]int, CountersSnapshot, *SweepStatsSnapshot) {
				before := c.Snapshot()
				ss := &SweepStats{}
				mt := NewMeter(context.Background(), Budget{}, nil, ss)
				nodes, err := k.Sweep(src, k.NewScratch(), mt, pl, true)
				if err != nil {
					t.Fatal(err)
				}
				after := c.Snapshot()
				after.StatesExpanded -= before.StatesExpanded
				after.EdgesScanned -= before.EdgesScanned
				after.ShardSweeps -= before.ShardSweeps
				after.FrontierPeak = 0 // a running maximum; the telemetry carries the sweep's own
				return append([]int(nil), nodes...), after, ss.Snapshot()
			}
			if k.tables.Load().neighbors {
				t.Fatal("fresh kernel already holds neighbor tables")
			}
			nodes0, counters0, stats0 := measure()

			const workers = 4
			results := make([][][]int, workers)
			var wg sync.WaitGroup
			for w := range results {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sc := k.NewScratch()
					for u := 0; u < g.NumNodes(); u++ {
						nodes, err := k.Sweep(u, sc, nil, pl, false)
						if err != nil {
							t.Error(err)
							return
						}
						results[w] = append(results[w], append([]int(nil), nodes...))
					}
				}(w)
			}
			wg.Wait()
			for w := 1; w < workers; w++ {
				if !reflect.DeepEqual(results[w], results[0]) {
					t.Fatalf("%q shards=%d: worker %d diverged from worker 0 across the crossing", q, shards, w)
				}
			}
			if !k.tables.Load().neighbors {
				t.Fatalf("%q shards=%d: %d adjacency entries scanned and the tables were never bought",
					q, shards, k.scanned.Load())
			}

			nodes1, counters1, stats1 := measure()
			if !reflect.DeepEqual(nodes1, nodes0) || !reflect.DeepEqual(nodes0, results[0][src]) {
				t.Fatalf("%q shards=%d: nodes differ across compilation:\nrent %v\nbuy  %v", q, shards, nodes0, nodes1)
			}
			if counters1 != counters0 {
				t.Fatalf("%q shards=%d: counters differ across compilation:\nrent %+v\nbuy  %+v", q, shards, counters0, counters1)
			}
			if !reflect.DeepEqual(stats1, stats0) {
				t.Fatalf("%q shards=%d: analyze telemetry differs across compilation:\nrent %+v\nbuy  %+v", q, shards, stats0, stats1)
			}
		}
	}
}

// TestSweepSizeGuard: a product whose state ids overflow Sweep's 32-bit
// local ids, or whose slabs would pass a batch's memory cap, is refused as
// a states-budget error, one state past the limit.
func TestSweepSizeGuard(t *testing.T) {
	for _, limit := range []int{maxSweepStates, maxBatchStates} {
		if err := checkSweepSize(limit, limit); err != nil {
			t.Fatalf("product of exactly the limit refused: %v", err)
		}
		err := checkSweepSize(limit+1, limit)
		var be *BudgetError
		if !errors.Is(err, ErrBudgetExceeded) || !errors.As(err, &be) || be.Resource != "states" || be.Limit != int64(limit) {
			t.Fatalf("got %v, want a states BudgetError at limit %d", err, limit)
		}
	}
}
