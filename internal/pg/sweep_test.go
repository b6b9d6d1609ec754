package pg_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// mustRPQ compiles q to its Glushkov automaton.
func mustRPQ(t testing.TB, q string) *automata.NFA {
	t.Helper()
	expr, err := rpq.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return rpq.Compile(expr)
}

// sweepKernels compiles q forward and backward over g.
func sweepKernels(t testing.TB, g *graph.Graph, q string) (fwd, bwd *pg.Kernel) {
	t.Helper()
	nfa := mustRPQ(t, q)
	return pg.NewKernel(g, pg.FromNFA(g, nfa), nil), pg.NewKernel(g, pg.FromNFABackward(g, nfa), nil)
}

// succBFS is the reference the sweep loop is held to: a map-based BFS over
// Kernel.Succ that shares no code with sweep.go.
func succBFS(k *pg.Kernel, src int) []int {
	seen := map[pg.State]bool{}
	var queue []pg.State
	visit := func(s pg.State) {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for _, q := range k.Semantics().Starts() {
		visit(pg.State{Node: src, State: q})
	}
	nodes := []int{}
	emitted := map[int]bool{}
	for ; len(queue) > 0; queue = queue[1:] {
		if s := queue[0]; k.Accepting(s) && !emitted[s.Node] {
			emitted[s.Node] = true
			nodes = append(nodes, s.Node)
		}
		for _, st := range k.Succ(queue[0]) {
			visit(st.To)
		}
	}
	sort.Ints(nodes)
	return nodes
}

// TestSweepMatchesSuccBFS is the sweep loop's oracle: every plan shape —
// {1, 2, 8} shards, forward and backward automata — must produce the
// per-source results of the reference BFS, on graph families covering the
// regimes the direction switch distinguishes (dense cliques, sparse grids,
// scale-free hubs, random multigraphs). Each kernel sweeps every source, so
// most of them cross the rent-or-buy point on the way and both table
// states are compared.
func TestSweepMatchesSuccBFS(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":    gen.Random(60, 300, []string{"a", "b"}, 5),
		"clique":    gen.Clique(12, "a"),
		"grid":      gen.Grid(7, 7, "a"),
		"scalefree": gen.ScaleFree(400, 3, 7),
	}
	queries := []string{"a*", "a b* a", "(!{b})*", "(a | b)+"}
	for gname, g := range graphs {
		for _, q := range queries {
			fwd, bwd := sweepKernels(t, g, q)
			for kname, kern := range map[string]*pg.Kernel{"fwd": fwd, "bwd": bwd} {
				want := make([][]int, g.NumNodes())
				for u := range want {
					want[u] = succBFS(kern, u)
				}
				for _, shards := range []int{1, 2, 8} {
					sc := kern.NewScratch()
					for u := 0; u < g.NumNodes(); u++ {
						got, err := kern.Sweep(u, sc, nil, pg.Plan{Shards: shards}, true)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(append([]int{}, got...), want[u]) {
							t.Fatalf("%s %s %s shards=%d src=%d:\nsweep     %v\nreference %v",
								gname, q, kname, shards, u, got, want[u])
						}
					}
				}
			}
		}
	}
}

// TestFrontierPeakIsCrossShardSum pins the satellite fix: the peak
// frontier a sharded sweep reports is the cross-shard level sum — the
// logical frontier is one queue partitioned P ways — not the largest
// single shard's slice. From node 0 of a 4-clique under a*, level 1 holds
// exactly the three other nodes, so every shard count must report 3.
func TestFrontierPeakIsCrossShardSum(t *testing.T) {
	g := gen.Clique(4, "a")
	expr, err := rpq.Parse("a*")
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.Compile(expr)
	for _, shards := range []int{1, 2, 4} {
		c := &pg.Counters{}
		kern := pg.NewKernel(g, pg.FromNFA(g, nfa), c)
		sc := kern.NewScratch()
		if _, err := kern.Sweep(0, sc, nil, pg.Plan{Shards: shards}, true); err != nil {
			t.Fatal(err)
		}
		if peak := c.Snapshot().FrontierPeak; peak != 3 {
			t.Fatalf("shards=%d: frontier peak %d, want 3 (cross-shard level sum)", shards, peak)
		}
	}
}

// TestFrontierShardCounters: sharded sweeps count one sharded-plan unit of
// P shard loops; unsharded sweeps count none.
func TestFrontierShardCounters(t *testing.T) {
	g := gen.Clique(5, "a")
	expr, err := rpq.Parse("a*")
	if err != nil {
		t.Fatal(err)
	}
	nfa := rpq.Compile(expr)
	c := &pg.Counters{}
	kern := pg.NewKernel(g, pg.FromNFA(g, nfa), c)
	sc := kern.NewScratch()
	if _, err := kern.Sweep(0, sc, nil, pg.Plan{Shards: 1}, true); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().ShardSweeps; got != 0 {
		t.Fatalf("unsharded sweep recorded %d shard sweeps", got)
	}
	if _, err := kern.Sweep(0, sc, nil, pg.Plan{Shards: 3}, true); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().ShardSweeps; got != 3 {
		t.Fatalf("sharded sweep recorded %d shard sweeps, want 3", got)
	}
}

// TestFrontierBudgetsAndCancel: budgets and cooperative cancellation keep
// working mid-sweep, sharded or not.
func TestFrontierBudgetsAndCancel(t *testing.T) {
	g := gen.Clique(40, "a")
	kern, _ := sweepKernels(t, g, "a* a*")
	for _, shards := range []int{1, 4} {
		pl := pg.Plan{Shards: shards}
		sc := kern.NewScratch()

		m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 10}, nil, nil)
		if _, err := kern.Sweep(0, sc, m, pl, true); !errors.Is(err, pg.ErrBudgetExceeded) {
			t.Fatalf("shards=%d states budget: got %v, want ErrBudgetExceeded", shards, err)
		}

		m = pg.NewMeter(context.Background(), pg.Budget{MaxRows: 5}, nil, nil)
		if _, err := kern.Sweep(0, sc, m, pl, true); !errors.Is(err, pg.ErrBudgetExceeded) {
			t.Fatalf("shards=%d rows budget: got %v, want ErrBudgetExceeded", shards, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m = pg.NewMeter(ctx, pg.Budget{}, nil, nil)
		if _, err := kern.Sweep(0, sc, m, pl, true); !errors.Is(err, pg.ErrCanceled) {
			t.Fatalf("shards=%d cancel: got %v, want ErrCanceled", shards, err)
		}

		// The scratch must be reusable after every error path.
		got, err := kern.Sweep(0, sc, nil, pl, true)
		if err != nil {
			t.Fatal(err)
		}
		if want := succBFS(kern, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: scratch poisoned by error paths: %v != %v", shards, got, want)
		}
	}
}

// TestFrontierScratchSurvivesShardChange: one scratch driven at different
// shard counts rebuilds its shard set and stays correct.
func TestFrontierScratchSurvivesShardChange(t *testing.T) {
	g := gen.Random(50, 250, []string{"a", "b"}, 9)
	kern, _ := sweepKernels(t, g, "(a | b)*")
	sc := kern.NewScratch()
	want := succBFS(kern, 3)
	for _, shards := range []int{1, 4, 2, 8, 1} {
		got, err := kern.Sweep(3, sc, nil, pg.Plan{Shards: shards}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d after resize: %v != %v", shards, got, want)
		}
	}
}

// TestFrontierShardsExceedNodes: more shards than graph nodes must clamp,
// not break (every node still owned by exactly one shard).
func TestFrontierShardsExceedNodes(t *testing.T) {
	g := gen.APath(3, "a")
	kern, _ := sweepKernels(t, g, "a*")
	sc := kern.NewScratch()
	got, err := kern.Sweep(0, sc, nil, pg.Plan{Shards: 16}, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := succBFS(kern, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped shards: %v != %v", got, want)
	}
}

// TestFrontierRowsBudgetExact: rows are charged one AddRows call per
// emitted node, so a MaxRows budget trips with the meter reading exactly
// MaxRows+1.
func TestFrontierRowsBudgetExact(t *testing.T) {
	g := gen.Clique(30, "a")
	kern, _ := sweepKernels(t, g, "a*")
	m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: 7}, nil, nil)
	sc := kern.NewScratch()
	_, err := kern.Sweep(0, sc, m, pg.Plan{}, true)
	if !errors.Is(err, pg.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if rows := m.Rows(); rows != 8 {
		t.Fatalf("meter read %d rows at trip, want exactly MaxRows+1 = 8", rows)
	}
}

func ExamplePlan_String() {
	fmt.Println(pg.Plan{Shards: 4, Workers: 1, EstStates: 1e6})
	fmt.Println(pg.Plan{Backward: true, Workers: 2})
	// Output:
	// dir=forward workers=1 shards=4 est=1000000
	// dir=backward workers=2 est=0
}
