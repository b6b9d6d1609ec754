package pg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// forwardTables returns the neighbor table behind every indexed slot of
// k's current forward table, keyed by label name and scan direction; a nil
// entry is a slot still renting the label index.
func forwardTables(k *Kernel) map[string]*graph.NeighborTable {
	out := map[string]*graph.NeighborTable{}
	for _, ts := range k.tables.Load().ft {
		for _, t := range ts {
			for i, lid := range t.labels {
				out[fmt.Sprintf("%s in=%v", k.g.LabelName(lid), t.in)] = t.adjs[i]
			}
		}
	}
	return out
}

// rentedSlots counts the forward slots of k that have no table.
func rentedSlots(k *Kernel) (n int) {
	for _, la := range forwardTables(k) {
		if la == nil {
			n++
		}
	}
	return n
}

// TestSweepIdenticalAcrossTableCompilation: the neighbor tables are a pure
// speedup. The same source swept on a fresh kernel over a fresh graph
// (renting the graph's label index) and again after the chain bought its
// tables returns byte-identical nodes, counter deltas and analyze telemetry
// — sharded or not — and four workers crossing the rent-or-buy point
// concurrently, each sweeping every source, all see the same answers.
// `go test -race` runs the crossing under the detector.
func TestSweepIdenticalAcrossTableCompilation(t *testing.T) {
	const src = 3
	for _, q := range []string{"(a | b)+", "a b* a", "(!{b})* a"} {
		nfa := rpq.Compile(rpq.MustParse(q))
		for _, shards := range []int{1, 2} {
			g := gen.ScaleFree(400, 3, 7) // a chain of its own: nothing bought yet
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
				after.FrontierPeak = 0        // a running maximum; the telemetry carries the sweep's own
				after.NeighborTablesBuilt = 0 // what the crossing is allowed to change
				return append([]int(nil), nodes...), after, ss.Snapshot()
			}
			if n := len(forwardTables(k)); rentedSlots(k) != n {
				t.Fatal("fresh kernel over a fresh graph already holds neighbor tables")
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
			if rentedSlots(k) != 0 || c.Snapshot().NeighborTablesBuilt == 0 {
				t.Fatalf("%q shards=%d: %d adjacency entries scanned and the tables were never bought: %v",
					q, shards, c.Snapshot().EdgesScanned, forwardTables(k))
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

// answers evaluates q from every live node of g on a fresh kernel — which
// compiles onto whatever tables g's chain holds for it — and renders the
// result through node IDs, so an overlay and its materialized rebuild, which
// number nodes differently, compare equal.
func answers(t *testing.T, g *graph.Graph, q string, c *Counters) []string {
	t.Helper()
	out, err := sweepAnswers(g, q, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// kernelFor compiles a fresh kernel for q over g — onto whatever tables g's
// chain holds for it.
func kernelFor(g *graph.Graph, q string, c *Counters) *Kernel {
	return NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse(q))), c)
}

func sweepAnswers(g *graph.Graph, q string, c *Counters) ([]string, error) {
	k := kernelFor(g, q, c)
	var out []string
	err := k.SweepAll(1, nil, Plan{}, false, func(part Runs) error {
		for i, u := range part.Src {
			for _, v := range part.Targets(i) {
				out = append(out, string(g.NodeID(int(u)))+" "+string(g.NodeID(int(v))))
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// checkAgainstRebuild holds q's answers on the overlay g — shared tables and
// all — to its answers on g's materialized rebuild, a chain of its own with
// no table on it.
func checkAgainstRebuild(t *testing.T, what string, g *graph.Graph, q string, c *Counters) []string {
	t.Helper()
	m, err := g.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got, want := answers(t, g, q, c), answers(t, m, q, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q has %d answers on the chain, %d on its materialized rebuild", what, q, len(got), len(want))
	}
	return got
}

func commit(t *testing.T, g *graph.Graph, muts ...graph.Mutation) *graph.Graph {
	t.Helper()
	ng, err := g.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func addEdge(id, label, src, tgt string) graph.Mutation {
	return graph.Mutation{Op: graph.MutAddEdge, ID: id, Label: label, Src: src, Tgt: tgt}
}

// TestTablesSharedAlongChain walks one version chain through the cases that
// decide whether a neighbor table may be shared: a commit that leaves the
// labels alone (same table pointers, nothing built), commits that add and
// remove an edge under one label (that label's table is retired, the
// other's still shared), a node added after the tables were built (the
// table grows an empty row; swept from and through), a removed node, and a
// compaction (a new chain, nothing on it). Every version's answers equal its
// materialized rebuild's.
func TestTablesSharedAlongChain(t *testing.T) {
	const q = "(a | b)*"
	c := &Counters{}
	v0 := gen.ScaleFree(300, 3, 5)
	k0 := kernelFor(v0, q, c)
	for i := 0; i < 2 && rentedSlots(k0) > 0; i++ {
		if err := k0.SweepAll(1, nil, Plan{}, false, func(Runs) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	bought := forwardTables(k0)
	built := c.Snapshot().NeighborTablesBuilt
	if rentedSlots(k0) != 0 || built != 2 {
		t.Fatalf("two all-sources sweeps built %d tables, want one each for a and b: %v", built, bought)
	}
	unchanged := func(what string) {
		t.Helper()
		if got := c.Snapshot().NeighborTablesBuilt; got != built {
			t.Fatalf("%s: neighbor tables built went %d -> %d", what, built, got)
		}
	}

	// A commit that touches only w: same pointers, nothing built.
	v1 := commit(t, v0, addEdge("w1", "w", "n1", "n2"), addEdge("w2", "w", "n2", "n3"))
	k1 := kernelFor(v1, q, c)
	if got := forwardTables(k1); !reflect.DeepEqual(got, bought) {
		t.Fatalf("a kernel compiled after a w-only commit scans %v, want the tables bought at v0 %v", got, bought)
	}
	at1 := checkAgainstRebuild(t, "v1", v1, q, c)
	unchanged("w-only commit")

	// One commit adds a b edge, the next removes one: b's table is retired,
	// a's is still the one bought at v0, and the answers move with the edges.
	v2 := commit(t, v1, addEdge("b+", "b", "n7", "n299"))
	bEdge := string(v2.Edge(v2.EdgesWithLabel("b")[0]).ID)
	v2 = commit(t, v2, graph.Mutation{Op: graph.MutRemoveEdge, ID: bEdge})
	k2 := kernelFor(v2, q, nil)
	if got := forwardTables(k2); got["a in=false"] != bought["a in=false"] || got["b in=false"] != nil {
		t.Fatalf("after commits to b a fresh kernel scans %v; want a's table from v0 and none for b", got)
	}
	if at2 := checkAgainstRebuild(t, "v2", v2, q, nil); reflect.DeepEqual(at2, at1) {
		t.Fatal("adding and removing a b edge changed no answer: the case cannot tell a stale table")
	}
	if got := forwardTables(k1); !reflect.DeepEqual(got, bought) || !reflect.DeepEqual(answers(t, v1, q, nil), at1) {
		t.Fatal("commits to b disturbed a kernel and the answers of the version before them")
	}

	// A node added after a's table was built, reached and left over w edges:
	// swept from (an empty row in the table) and through (a's table on either
	// side).
	v3 := commit(t, v2, graph.Mutation{Op: graph.MutAddNode, ID: "late"},
		addEdge("w3", "w", "n4", "late"), addEdge("w4", "w", "late", "n5"))
	const qw = "(a | w)*"
	k3 := kernelFor(v3, qw, nil)
	if forwardTables(k3)["a in=false"] == nil {
		t.Fatal("adding a node with w edges retired a's table")
	}
	at3 := checkAgainstRebuild(t, "v3", v3, qw, nil)
	for _, pair := range []string{"late n5", "n4 late", "n4 n5"} {
		if i := sort.SearchStrings(at3, pair); i == len(at3) || at3[i] != pair {
			t.Fatalf("v3: %q does not reach %s", qw, pair)
		}
	}

	// A removed node cascades over a and b: both tables are retired.
	v4 := commit(t, v3, graph.Mutation{Op: graph.MutRemoveNode, ID: "n0"})
	k4 := kernelFor(v4, q, nil)
	if n := rentedSlots(k4); n != 2 {
		t.Fatalf("after removing a hub %d of 2 slots rent; the tables saw its edges", n)
	}
	checkAgainstRebuild(t, "v4", v4, q, nil)

	// Compaction starts a chain with nothing on it.
	m, err := v4.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if km := kernelFor(m, q, nil); rentedSlots(km) != 2 {
		t.Fatal("a kernel over a materialized graph found tables on its chain")
	}
}

// TestPinnedReaderAcrossPurchases: readers holding v0 sweep it on fresh
// kernels while a writer commits to a, b and w and newer versions buy — and
// thereby replace — the chain's tables. Every reader answer equals the
// answer computed on v0 before any of it; under -race this is also the
// check that purchases on one version and scans on another share nothing
// unsynchronized.
func TestPinnedReaderAcrossPurchases(t *testing.T) {
	const q = "(a | b)+"
	v0 := gen.ScaleFree(150, 3, 3)
	want := answers(t, v0, q, nil)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if got, err := sweepAnswers(v0, q, nil); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("pinned reader, round %d: %d answers (%v), want %d", i, len(got), err, len(want))
					return
				}
			}
		}()
	}
	g := v0
	for i := 0; i < 30; i++ {
		label := []string{"a", "b", "w"}[i%3]
		g = commit(t, g, addEdge(fmt.Sprint("x", i), label, fmt.Sprint("n", i), fmt.Sprint("n", 149-i)))
		if i%5 == 0 {
			g = commit(t, g, graph.Mutation{Op: graph.MutRemoveEdge, ID: fmt.Sprint("x", i)})
		}
		if i%10 == 9 {
			checkAgainstRebuild(t, fmt.Sprint("writer, commit ", i), g, q, nil)
		} else {
			answers(t, g, q, nil)
		}
	}
	wg.Wait()
}

// TestHotDirtyLabelBuildsFewTables: 200 commits to a, one anchored sweep
// over a after each. Every kernel finds a's table retired by the commit
// before it and rents; tables are rebuilt only as often as the rent pays for
// them — a handful of times, never once per commit, and never for more than
// the entries rented.
func TestHotDirtyLabelBuildsFewTables(t *testing.T) {
	g := gen.ScaleFree(2000, 3, 1)
	cheapest := int64(g.NumNodes() + len(g.EdgesWithLabel("a"))) // a only grows
	c := &Counters{}
	nfa := rpq.Compile(rpq.MustParse("a a a"))
	for i := 0; i < 200; i++ {
		g = commit(t, g, addEdge(fmt.Sprint("hot", i), "a", fmt.Sprint("n", i), fmt.Sprint("n", 1999-i)))
		k := NewKernel(g, FromNFA(g, nfa), c)
		if _, err := k.Sweep(i*7%2000, k.NewScratch(), nil, Plan{}, false); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if snap.NeighborTablesBuilt < 1 || snap.NeighborTablesBuilt > 10 {
		t.Fatalf("200 commits to a, a sweep after each: %d tables built, want a few", snap.NeighborTablesBuilt)
	}
	// Every expanded state of `a a a` looks up at most one row.
	if spent, rent := snap.NeighborTablesBuilt*cheapest, snap.StatesExpanded+snap.EdgesScanned; spent > rent {
		t.Fatalf("%d tables cost at least %d, the sweeps rented at most %d rows and entries", snap.NeighborTablesBuilt, spent, rent)
	}
}

// TestMeteringAlikeOnRentedAndSharedTables: where the scan reads its
// neighbors from decides nothing the meter sees. A states budget trips, a
// canceled context stops and a rows budget fails at exactly the same meter
// readings on a chain that still rents and on one whose tables another
// kernel bought — for the anchored loop and for the batched one.
func TestMeteringAlikeOnRentedAndSharedTables(t *testing.T) {
	const q = "(a | b)+"
	nfa := rpq.Compile(rpq.MustParse(q))
	shared := gen.ScaleFree(1500, 3, 4)
	buyer := NewKernel(shared, FromNFA(shared, nfa), nil)
	if err := buyer.SweepAll(1, nil, Plan{}, false, func(Runs) error { return nil }); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		budget Budget
		want   error
	}{
		{"states budget", context.Background(), Budget{MaxStates: 3 * CheckInterval}, ErrBudgetExceeded},
		{"rows budget", context.Background(), Budget{MaxRows: 700}, ErrBudgetExceeded},
		{"canceled", canceled, Budget{}, ErrCanceled},
	} {
		type reading struct {
			states, rows int64
			err          string
		}
		run := func(g *graph.Graph, renting, batched bool) reading {
			k := NewKernel(g, FromNFA(g, nfa), nil)
			if got := rentedSlots(k) > 0; got != renting {
				t.Fatalf("%s: kernel rents: %v, want %v", tc.name, got, renting)
			}
			mt := NewMeter(tc.ctx, tc.budget, nil, nil)
			var err error
			if batched {
				err = k.SweepAll(1, mt, Plan{}, true, func(Runs) error { return nil })
			} else {
				_, err = k.Sweep(11, k.NewScratch(), mt, Plan{}, true)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
			}
			return reading{mt.States(), mt.Rows(), err.Error()}
		}
		for _, batched := range []bool{false, true} {
			// The renting run gets a chain of its own, with nothing on it.
			if on, off := run(shared, false, batched), run(gen.ScaleFree(1500, 3, 4), true, batched); on != off {
				t.Fatalf("%s batched=%v: %+v on shared tables, %+v renting", tc.name, batched, on, off)
			}
		}
	}
}

// TestSparseDirtyLabelIsBoughtBack: rent counts rows looked up, not only the
// entries found in them. `a* z` asks every state a* reaches for its z row,
// and almost all of those rows are empty; after a commit under z the new
// revision's kernel finds a's table and must win z's back from those
// lookups — counting entries alone it would binary-search z rows for ever.
func TestSparseDirtyLabelIsBoughtBack(t *testing.T) {
	g := commit(t, gen.ScaleFree(800, 3, 6), addEdge("z0", "z", "n1", "n2"))
	nfa := rpq.Compile(rpq.MustParse("a* z"))
	sweepAll := func(k *Kernel) {
		t.Helper()
		if err := k.SweepAll(1, nil, Plan{}, false, func(Runs) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	sweepAll(NewKernel(g, FromNFA(g, nfa), nil)) // buys a and z
	// 40 commits: more rebuilds than what renting a left on the balance pays for.
	for i := 1; i <= 40; i++ {
		g = commit(t, g, addEdge(fmt.Sprint("z", i), "z", fmt.Sprint("n", 5*i), fmt.Sprint("n", 10*i)))
		k := NewKernel(g, FromNFA(g, nfa), nil)
		if got := forwardTables(k); got["a in=false"] == nil || got["z in=false"] != nil {
			t.Fatalf("commit %d: a fresh kernel scans %v; want a's table and none for z", i, got)
		}
		sweepAll(k)
		if rentedSlots(k) != 0 {
			t.Fatalf("commit %d: one all-sources sweep later z is still rented", i)
		}
	}
}
