package pg_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/twoway"
)

// perSourcePairs is the oracle the all-sources driver is held to: one
// Kernel.Sweep per live source, pairs built source by source.
func perSourcePairs(t *testing.T, kern *pg.Kernel, sources []int, mt *pg.Meter) [][2]int {
	t.Helper()
	g := kern.Graph()
	if sources == nil {
		for u := 0; u < g.NumNodes(); u++ {
			sources = append(sources, u)
		}
	}
	var out [][2]int
	sc := kern.NewScratch()
	for _, u := range sources {
		if !g.NodeAlive(u) {
			continue
		}
		vs, err := kern.Sweep(u, sc, mt, pg.Plan{}, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// sweepAllPairs collects the driver's pairs: SweepAll for a nil source list
// (every node, as in perSourcePairs), SweepFrom otherwise.
func sweepAllPairs(kern *pg.Kernel, sources []int, workers int, mt *pg.Meter, pl pg.Plan) ([][2]int, error) {
	var out [][2]int
	emit := func(part [][2]int) error {
		out = append(out, part...)
		return nil
	}
	if sources == nil {
		return out, kern.SweepAll(workers, mt, pl, true, emit)
	}
	err := kern.SweepFrom(sources, workers, mt, pl, true, emit)
	return out, err
}

// analyzeMeter returns an unlimited meter carrying a fresh telemetry sink.
func analyzeMeter() (*pg.Meter, *pg.SweepStats) {
	ss := &pg.SweepStats{}
	return pg.NewMeter(context.Background(), pg.Budget{}, nil, ss), ss
}

// overlayGraph is a scale-free graph with tombstoned nodes — one of them
// in the first batch, one a hub — and a node and edges added on top, left
// as an overlay.
func overlayGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ScaleFree(130, 3, 11).Apply([]graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n0"},
		{Op: graph.MutRemoveNode, ID: "n7"},
		{Op: graph.MutRemoveNode, ID: "n64"},
		{Op: graph.MutRemoveNode, ID: "n129"},
		{Op: graph.MutAddNode, ID: "fresh"},
		{Op: graph.MutAddEdge, ID: "fresh-in", Label: "a", Src: "n5", Tgt: "fresh"},
		{Op: graph.MutAddEdge, ID: "fresh-out", Label: "b", Src: "fresh", Tgt: "n100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeAlive(0) || g.NumLiveNodes() != 127 {
		t.Fatalf("overlay fixture lost its tombstones: %d live nodes", g.NumLiveNodes())
	}
	return g
}

// TestSweepAllMatchesPerSourceSweep is the batched loop's differential:
// over generated graphs × automata — forward and backward machines, a
// two-way machine, negated guards on the indexed path (two labels admitted)
// and on the dense-scan path (six), tombstoned sources under an overlay,
// 800 sources — and over source lists that end inside, at and just past the
// short first batch and a full one, the driver must hand back exactly the
// pairs of one
// Kernel.Sweep per source, in the same order, having ticked exactly the
// same states; and pairs, counters and analyze telemetry must not depend on
// the worker count.
func TestSweepAllMatchesPerSourceSweep(t *testing.T) {
	seven := []string{"a", "b", "c", "d", "e", "f", "g"}
	queries := []string{"a*", "a b* a", "(!{b})*", "(a | b)+"}
	graphs := []struct {
		name    string
		g       *graph.Graph
		queries []string
	}{
		{"random", gen.Random(60, 300, []string{"a", "b"}, 5), queries},
		{"seven-labels", gen.Random(90, 700, seven, 3), queries},
		{"clique", gen.Clique(12, "a"), queries},
		{"grid", gen.Grid(9, 9, "a"), queries},
		{"overlay", overlayGraph(t), queries},
		// Here for its source count — fourteen batches, the last one short —
		// and kept to one query: the oracle is 800 sweeps per kernel.
		{"scalefree-800", gen.ScaleFree(800, 4, 42), []string{"a b* a"}},
	}
	for _, gc := range graphs {
		g := gc.g
		kernels := map[string]func(c *pg.Counters) *pg.Kernel{}
		for _, q := range gc.queries {
			expr := mustRPQ(t, q)
			kernels[q+" fwd"] = func(c *pg.Counters) *pg.Kernel { return pg.NewKernel(g, pg.FromNFA(g, expr), c) }
			kernels[q+" bwd"] = func(c *pg.Counters) *pg.Kernel { return pg.NewKernel(g, pg.FromNFABackward(g, expr), c) }
		}
		kernels["(a|~a)* b two-way"] = func(c *pg.Counters) *pg.Kernel {
			return twoway.Kernel(g, twoway.MustParse("(a|~a)* b"), c)
		}
		var live []int
		for u := 0; u < g.NumNodes(); u++ {
			if g.NodeAlive(u) {
				live = append(live, u)
			}
		}
		lists := [][]int{nil}
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 72, 73} {
			if n <= len(live) && len(live) < 800 {
				lists = append(lists, live[:n])
			}
		}
		for kname, build := range kernels {
			for _, sources := range lists {
				name := fmt.Sprintf("%s %s sources=%d", gc.name, kname, len(sources))
				var oc pg.Counters
				om, oss := analyzeMeter()
				want := perSourcePairs(t, build(&oc), sources, om)
				oracle := oss.Snapshot()

				var first pg.CountersSnapshot
				var firstJSON []byte
				for _, workers := range []int{1, 2, 8} {
					var c pg.Counters
					m, ss := analyzeMeter()
					got, err := sweepAllPairs(build(&c), sources, workers, m, pg.Plan{})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s workers=%d: batched pairs differ from per-source sweeps\n got %v\nwant %v", name, workers, got, want)
					}
					if m.States() != om.States() || m.Rows() != om.Rows() || c.Snapshot().StatesExpanded != oc.Snapshot().StatesExpanded {
						t.Fatalf("%s workers=%d: states %d rows %d counter %d; per-source sweeps read %d, %d, %d", name, workers,
							m.States(), m.Rows(), c.Snapshot().StatesExpanded, om.States(), om.Rows(), oc.Snapshot().StatesExpanded)
					}
					snap := ss.Snapshot()
					js, err := json.Marshal(snap)
					if err != nil {
						t.Fatal(err)
					}
					// Tables are bought on the graph's chain, which the kernels of
					// this loop share: which of them builds one is not the
					// sweep's doing.
					counters := c.Snapshot()
					counters.NeighborTablesBuilt = 0
					if workers == 1 {
						first, firstJSON = counters, js
						// One visit is one (source, state) discovery, level by
						// level: only edges, direction and peak may differ.
						if snap.Sweeps != oracle.Sweeps || snap.States != oracle.States || len(snap.Levels) != len(oracle.Levels) {
							t.Fatalf("%s: telemetry %+v, per-source sweeps recorded %+v", name, snap, oracle)
						}
						for i, l := range snap.Levels {
							if o := oracle.Levels[i]; l.Sweeps != o.Sweeps || l.Frontier != o.Frontier || l.Discovered != o.Discovered {
								t.Fatalf("%s level %d: %+v, per-source sweeps recorded %+v", name, i, l, o)
							}
						}
						continue
					}
					if counters != first {
						t.Fatalf("%s workers=%d: counters %+v, one worker read %+v", name, workers, counters, first)
					}
					if string(js) != string(firstJSON) {
						t.Fatalf("%s workers=%d: analyze telemetry diverged\n got %s\nwant %s", name, workers, js, firstJSON)
					}
				}

				// Batches do not shard: a sharded plan reaches Sweep for a
				// list of one only, and the answer is the same either way.
				if got, err := sweepAllPairs(build(nil), sources, 2, nil, pg.Plan{Shards: 2}); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s shards=2: (%d pairs, %v), want %d pairs", name, len(got), err, len(want))
				}
			}
		}
	}
}

// TestSweepAllSharesEdgeScans pins what batching is for: on a graph whose
// sources reach the same hubs, the batched loop examines several times
// fewer adjacency entries than per-source sweeps.
func TestSweepAllSharesEdgeScans(t *testing.T) {
	g := gen.ScaleFree(800, 4, 42)
	expr := mustRPQ(t, "a* b a")
	var oc, c pg.Counters
	want := perSourcePairs(t, pg.NewKernel(g, pg.FromNFA(g, expr), &oc), nil, nil)
	got, err := sweepAllPairs(pg.NewKernel(g, pg.FromNFA(g, expr), &c), nil, 1, nil, pg.Plan{})
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("(%d pairs, %v), want %d pairs", len(got), err, len(want))
	}
	if per, batched := oc.Snapshot().EdgesScanned, c.Snapshot().EdgesScanned; batched*5 > per {
		t.Fatalf("batched loop examined %d adjacency entries, per-source sweeps %d: want at least 5x fewer", batched, per)
	}
}

// TestSweepFromEmptyList: an empty source list sweeps nothing, nil or not —
// only SweepAll means every node.
func TestSweepFromEmptyList(t *testing.T) {
	kern, _ := sweepKernels(t, gen.Clique(12, "a"), "a*")
	for _, sources := range [][]int{nil, {}} {
		m := pg.NewMeter(context.Background(), pg.Budget{}, nil, nil)
		err := kern.SweepFrom(sources, 2, m, pg.Plan{}, true, func(part [][2]int) error {
			t.Fatalf("empty source list emitted %v", part)
			return nil
		})
		if err != nil || m.States() != 0 {
			t.Fatalf("empty source list: err %v, %d states", err, m.States())
		}
	}
}

// collectSources runs the driver under mt and returns the sources whose
// pairs reached emit, in order, with the row count.
func collectSources(kern *pg.Kernel, workers int, mt *pg.Meter) (sources []int, rows int, err error) {
	err = kern.SweepAll(workers, mt, pg.Plan{}, true, func(part [][2]int) error {
		for _, pr := range part {
			if len(sources) == 0 || sources[len(sources)-1] != pr[0] {
				sources = append(sources, pr[0])
			}
		}
		rows += len(part)
		return nil
	})
	return sources, rows, err
}

// TestSweepAllRowsBudgetExact: rows are charged source by source at
// delivery, so a MaxRows budget trips with the meter reading exactly
// MaxRows+1 and every source before the tripping one — in an earlier batch
// or in its own — already delivered whole, at any worker count.
func TestSweepAllRowsBudgetExact(t *testing.T) {
	g := gen.Clique(70, "a") // 69 rows per source, two batches
	kern, _ := sweepKernels(t, g, "a")
	for _, tc := range []struct{ maxRows, delivered int }{
		{3, 0},           // inside the first source
		{69*2 + 5, 2},    // inside the first batch
		{69 * 8, 8},      // first row of the second batch
		{69*65 + 68, 65}, // last row of a source in the second batch
	} {
		for _, workers := range []int{1, 4} {
			m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: int64(tc.maxRows)}, nil, nil)
			sources, rows, err := collectSources(kern, workers, m)
			var be *pg.BudgetError
			if !errors.As(err, &be) || be.Resource != "rows" {
				t.Fatalf("MaxRows=%d workers=%d: got %v, want a rows BudgetError", tc.maxRows, workers, err)
			}
			if m.Rows() != int64(tc.maxRows)+1 {
				t.Errorf("MaxRows=%d workers=%d: meter read %d rows at trip, want exactly MaxRows+1", tc.maxRows, workers, m.Rows())
			}
			if len(sources) != tc.delivered || rows != 69*tc.delivered {
				t.Errorf("MaxRows=%d workers=%d: %d sources (%d rows) delivered before the trip, want %d whole sources",
					tc.maxRows, workers, len(sources), rows, tc.delivered)
			}
		}
	}
	m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: 69 * 70}, nil, nil)
	if _, rows, err := collectSources(kern, 4, m); err != nil || rows != 69*70 {
		t.Fatalf("budget equal to the result: (%d rows, %v), want all %d", rows, err, 69*70)
	}
}

// TestSweepAllStatesBudgetAndReuse: the states budget trips mid-batch, and
// the pooled batch it poisoned is cleared before its next use.
func TestSweepAllStatesBudgetAndReuse(t *testing.T) {
	g := gen.Clique(40, "a")
	kern, _ := sweepKernels(t, g, "a* a*")
	want := perSourcePairs(t, kern, nil, nil)
	for _, workers := range []int{1, 4} {
		m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 300}, nil, nil)
		_, err := sweepAllPairs(kern, nil, workers, m, pg.Plan{})
		var be *pg.BudgetError
		if !errors.As(err, &be) || be.Resource != "states" {
			t.Fatalf("workers=%d: got %v, want a states BudgetError", workers, err)
		}
		// The whole product is 40·40·3 (source, state) pairs; the trip must
		// come at the first tick past the budget, not after the batch.
		if m.States() > 300+2*pg.CheckInterval*int64(workers) {
			t.Errorf("workers=%d: %d states ticked before a 300-state budget stopped the sweep", workers, m.States())
		}
		got, err := sweepAllPairs(kern, nil, workers, nil, pg.Plan{})
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: batch poisoned by the error path: (%d pairs, %v), want %d", workers, len(got), err, len(want))
		}
	}
}

// pollCanceled is a context that reports cancellation from its after-th
// Err poll on: a cancel that lands at a known tick of the meter.
type pollCanceled struct {
	context.Context
	polls, after int
}

func (c *pollCanceled) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCanceled) Err() error {
	if c.polls++; c.polls >= c.after {
		return context.Canceled
	}
	return nil
}

// TestSweepAllCancelWithinOneCheckInterval: a long cycle shares nothing, so
// every frontier entry discovers one (source, state) pair and the meter
// ticks every CheckInterval of them exactly; a cancel that becomes visible
// at the third tick must stop the batch right there.
func TestSweepAllCancelWithinOneCheckInterval(t *testing.T) {
	g := gen.Cycle(2000, "a")
	kern, _ := sweepKernels(t, g, "a*")
	ctx := &pollCanceled{Context: context.Background(), after: 3}
	m := pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	_, err := sweepAllPairs(kern, nil, 1, m, pg.Plan{})
	if !errors.Is(err, pg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if got := m.States(); got < 3*pg.CheckInterval || got >= 4*pg.CheckInterval {
		t.Fatalf("sweep stopped at %d states, want within one check interval of the third tick (%d)", got, 3*pg.CheckInterval)
	}
}
