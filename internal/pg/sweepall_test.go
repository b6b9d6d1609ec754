package pg_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/twoway"
)

// perSourcePairs is the oracle the all-sources driver is held to: one
// Kernel.Sweep per live source, pairs built source by source. idle counts the
// sweeps that examined no adjacency entry and found nothing — the sources the
// driver is allowed not to run — when the kernel has counters to read that
// off.
func perSourcePairs(t *testing.T, kern *pg.Kernel, sources []int, mt *pg.Meter) (out [][2]int, idle int64) {
	t.Helper()
	g := kern.Graph()
	if sources == nil {
		for u := 0; u < g.NumNodes(); u++ {
			sources = append(sources, u)
		}
	}
	sc := kern.NewScratch()
	for _, u := range sources {
		if !g.NodeAlive(u) {
			continue
		}
		before := kern.Counters().Snapshot().EdgesScanned
		vs, err := kern.Sweep(u, sc, mt, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 && kern.Counters() != nil && kern.Counters().Snapshot().EdgesScanned == before {
			idle++
		}
		for _, v := range vs {
			out = append(out, [2]int{u, v})
		}
	}
	return out, idle
}

// appendPairs spells part's runs out as (source, target) pairs, holding it
// to what the driver promises of every Runs it emits: at least one run, none
// empty, each one's targets strictly ascending.
func appendPairs(dst [][2]int, part pg.Runs) [][2]int {
	if len(part.Src) == 0 || len(part.End) != len(part.Src) || int(part.End[len(part.End)-1]) != part.Len() {
		panic(fmt.Sprintf("malformed runs: %d sources, ends %v, %d targets", len(part.Src), part.End, part.Len()))
	}
	for i, u := range part.Src {
		tgts := part.Targets(i)
		if len(tgts) == 0 || !slices.IsSorted(tgts) || len(slices.Compact(slices.Clone(tgts))) != len(tgts) {
			panic(fmt.Sprintf("run of source %d: targets %v, want some, strictly ascending", u, tgts))
		}
		for _, v := range tgts {
			dst = append(dst, [2]int{int(u), int(v)})
		}
	}
	return dst
}

// sweepAllPairs collects the driver's pairs: SweepAll for a nil source list
// (every node, as in perSourcePairs), SweepFrom otherwise.
func sweepAllPairs(kern *pg.Kernel, sources []int, workers int, mt *pg.Meter) ([][2]int, error) {
	var out [][2]int
	emit := func(part pg.Runs) error {
		out = appendPairs(out, part)
		return nil
	}
	if sources == nil {
		return out, kern.SweepAll(workers, mt, true, emit)
	}
	err := kern.SweepFrom(sources, workers, mt, true, emit)
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

// tangle is the generated family the condensed loop is held on: blocks of
// nodes — strongly connected ones (a cycle plus chords), DAG-shaped ones and
// isolated nodes — joined only by edges from a block to a later one, with
// self-loops, parallel edges and a few z edges on top. The first block is a
// strongly connected hub, and batch 0's sources sit in it: forward they
// reach most of the graph and discover enough to pay for a condensation,
// backward they reach the hub only and the call stays on the level loop.
// flipped reverses every edge, and with it which kernel buys.
func tangle(seed int64, n int, flipped bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	id := func(i int) graph.NodeID { return graph.NodeID("n" + strconv.Itoa(i)) }
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	edges := 0
	add := func(u, v int) {
		label := "a"
		switch r := rng.Intn(20); {
		case r == 0:
			label = "z"
		case r < 4:
			label = "b"
		}
		if flipped {
			u, v = v, u
		}
		for copies := 1 + rng.Intn(5)/4; copies > 0; copies-- { // one edge in five is doubled
			b.AddEdge(graph.EdgeID("e"+strconv.Itoa(edges)), label, id(u), id(v), nil)
			edges++
		}
	}
	for lo := 0; lo < n; {
		size, kind := 1+rng.Intn(40), rng.Intn(5)/2 // 0 strongly connected, 1 DAG, 2 isolated nodes
		switch {
		case lo == 0:
			size, kind = 24, 0
		case kind == 2:
			size = 1 + size/10
		}
		hi := min(lo+size, n)
		for u := lo; u < hi && kind != 2; u++ {
			if kind == 0 {
				add(u, lo+(u+1-lo)%(hi-lo)) // the cycle; a block of one gets a self-loop
			}
			for c := 1 + rng.Intn(2); c > 0 && u+1 < hi; c-- {
				add(u, u+1+rng.Intn(hi-u-1))
			}
			if rng.Intn(10) == 0 {
				add(u, u)
			}
		}
		for in := 1 + rng.Intn(4); in > 0 && lo > 0 && kind != 2; in-- {
			from := rng.Intn(lo)
			if rng.Intn(2) == 0 {
				from = rng.Intn(24)
			}
			add(from, lo+rng.Intn(hi-lo))
		}
		lo = hi
	}
	return b.MustBuild()
}

// tangleOverlay is a tangle left as an overlay: tombstoned nodes — one of
// them a source of batch 0, one in the hub — removed edges and a few added
// ones.
func tangleOverlay(t *testing.T, seed int64, n int) *graph.Graph {
	t.Helper()
	base := tangle(seed, n, false)
	rng := rand.New(rand.NewSource(seed))
	muts := []graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n3"},
		{Op: graph.MutRemoveNode, ID: "n17"},
		{Op: graph.MutRemoveNode, ID: "n" + strconv.Itoa(n-1)},
	}
	for i := 0; i < 12; i++ {
		if e := base.Edge(rng.Intn(base.NumEdges())); e.Src != 3 && e.Src != 17 && e.Src != n-1 && e.Tgt != 3 && e.Tgt != 17 && e.Tgt != n-1 {
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: string(e.ID)})
		}
	}
	for i := 0; i < 6; i++ {
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, ID: "x" + strconv.Itoa(i), Label: "a",
			Src: "n" + strconv.Itoa(30+rng.Intn(n-40)), Tgt: "n" + strconv.Itoa(30+rng.Intn(n-40))})
	}
	g, err := base.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeAlive(3) || g.NumLiveNodes() != n-3 {
		t.Fatalf("overlay fixture lost its tombstones: %d live nodes", g.NumLiveNodes())
	}
	return g
}

// rareLabels is the family the idle rule is held on: seven labels, so that a
// negated guard scans densely (it admits six, more than the kernel indexes),
// c on about one edge in twenty, half the nodes with no out-edge at all, an
// eighth with b edges only — idle under `c …`, not under `!{b} …`, which
// examines their edges and matches none — and the rest with a few edges of
// any label.
func rareLabels(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	id := func(i int) graph.NodeID { return graph.NodeID("n" + strconv.Itoa(i)) }
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	edges := 0
	add := func(label string, u int) {
		b.AddEdge(graph.EdgeID("e"+strconv.Itoa(edges)), label, id(u), id(rng.Intn(n)), nil)
		edges++
	}
	for u := 0; u < n; u++ {
		switch r := rng.Intn(8); {
		case r < 4:
		case r == 4:
			for c := 1 + rng.Intn(2); c > 0; c-- {
				add("b", u)
			}
		default:
			for c := 1 + rng.Intn(3); c > 0; c-- {
				label := string(rune('a' + rng.Intn(7)))
				if label == "c" && rng.Intn(3) != 0 {
					label = "a"
				}
				add(label, u)
			}
		}
	}
	return b.MustBuild()
}

// rareLabelsOverlay is a rareLabels graph left as an overlay that moved
// sources across the idle rule under b: a node lost its only b edge (idle
// now), a node without edges gained its first (it moves now), a node with a b
// edge is tombstoned. b's epoch has moved, so its neighbor tables are gone
// and the driver reads rows through the label index until rent buys new ones.
func rareLabelsOverlay(t *testing.T, seed int64, n int) *graph.Graph {
	t.Helper()
	base := rareLabels(seed, n)
	lb, _ := base.LabelID("b")
	var loses, gains, dies int = -1, -1, -1
	for u := 10; u < n; u++ {
		bs := base.OutWithLabel(u, lb)
		switch {
		case loses < 0 && len(bs) == 1 && base.OutDegree(u) == 1:
			loses = u
		case gains < 0 && base.OutDegree(u) == 0:
			gains = u
		case dies < 0 && u != loses && len(bs) == 2:
			dies = u
		}
	}
	if loses < 0 || gains < 0 || dies < 0 {
		t.Fatalf("overlay fixture: no node to lose (%d), gain (%d) or die (%d)", loses, gains, dies)
	}
	name := func(u int) string { return "n" + strconv.Itoa(u) }
	g, err := base.Apply([]graph.Mutation{
		{Op: graph.MutRemoveEdge, ID: string(base.Edge(base.OutWithLabel(loses, lb)[0]).ID)},
		{Op: graph.MutAddEdge, ID: "first-b", Label: "b", Src: name(gains), Tgt: name(5)},
		{Op: graph.MutRemoveNode, ID: name(dies)},
		{Op: graph.MutRemoveNode, ID: name(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(loses) != 0 || g.OutDegree(gains) != 1 || g.NodeAlive(dies) || g.NeighborTable(lb, false) != nil {
		t.Fatal("overlay fixture did not move its sources across the idle rule")
	}
	return g
}

// TestSweepAllMatchesPerSourceSweep is the all-sources driver's
// differential, for both loops under it. Over generated graphs × automata —
// forward and backward machines, a two-way machine, negated guards on the
// indexed path (two labels admitted) and on the dense-scan path (six),
// nested stars, tombstoned sources under an overlay, 800 sources — and over
// source lists that end inside, at and just past the short first batch and
// a full one, the driver must hand back exactly the pairs of one
// Kernel.Sweep per source, in the same order, having ticked exactly the
// same states; and pairs, counters and analyze telemetry must not depend on
// the worker count. The tangles have seven batches, so their calls come out
// on both sides of the rent-then-buy rule (the test checks that both did):
// a call that stayed on the level loop must match the per-source sweeps
// level by level, one that condensed must match them level by level for
// batch 0 and in sources and states for the rest. The rare-label graphs are
// there for the sources the driver charges without running (idle_sources
// must count exactly the per-source sweeps that examined nothing and found
// nothing): a start state that accepts, so nothing is idle; a rare first
// label, forward and — flipped — as the last; a union start; a guard first,
// under which a node whose edges all fail it is not idle; an inverse first
// step; and sources an overlay moved across the rule.
func TestSweepAllMatchesPerSourceSweep(t *testing.T) {
	seven := []string{"a", "b", "c", "d", "e", "f", "g"}
	queries := []string{"a*", "a b* a", "(!{b})*", "(a | b)+"}
	cyclic := []string{"a*", "a* z a", "(a|b)* z (a|b)", "(!{b})* z a", "(a* b)* a*", "((a|z)* b*)*"}
	rare := []string{"a*", "c a*", "b a*", "(a|b) c", "!{b} a*", "b b b"}
	graphs := []struct {
		name    string
		g       *graph.Graph
		queries []string
		twoWay  string
		lists   bool // also run SweepFrom over prefixes of the live nodes
	}{
		{"random", gen.Random(60, 300, []string{"a", "b"}, 5), queries, "(a|~a)* b", true},
		{"seven-labels", gen.Random(90, 700, seven, 3), queries, "(a|~a)* b", true},
		{"clique", gen.Clique(12, "a"), queries, "(a|~a)* b", true},
		{"grid", gen.Grid(9, 9, "a"), queries, "(a|~a)* b", true},
		{"overlay", overlayGraph(t), queries, "(a|~a)* b", true},
		// Here for its source count — fourteen batches, the last one short —
		// and kept to one query: the oracle is 800 sweeps per kernel.
		{"scalefree-800", gen.ScaleFree(800, 4, 42), []string{"a b* a"}, "(a|~a)* b", false},
		{"tangle", tangle(1, 340, false), cyclic, "(a|~a)* z", false},
		{"tangle-flipped", tangle(2, 340, true), cyclic, "(a|~a)* z", false},
		{"tangle-overlay", tangleOverlay(t, 3, 343), cyclic, "(a|~a)* z", false},
		{"rare-labels", rareLabels(4, 260), rare, "~c (a|~a)*", true},
		{"rare-labels-overlay", rareLabelsOverlay(t, 5, 260), rare, "~b (a|~a)*", true},
	}
	bought, stayed, idled := 0, 0, int64(0)
	for _, gc := range graphs {
		g := gc.g
		kernels := map[string]func(c *pg.Counters) *pg.Kernel{}
		for _, q := range gc.queries {
			expr := mustRPQ(t, q)
			kernels[q+" fwd"] = func(c *pg.Counters) *pg.Kernel { return pg.NewKernel(g, pg.FromNFA(g, expr), c) }
			kernels[q+" bwd"] = func(c *pg.Counters) *pg.Kernel { return pg.NewKernel(g, pg.FromNFABackward(g, expr), c) }
		}
		kernels[gc.twoWay+" two-way"] = func(c *pg.Counters) *pg.Kernel {
			return twoway.Kernel(g, twoway.MustParse(gc.twoWay), c)
		}
		var live []int
		for u := 0; u < g.NumNodes(); u++ {
			if g.NodeAlive(u) {
				live = append(live, u)
			}
		}
		lists := [][]int{nil}
		for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 72, 73} {
			if n <= len(live) && gc.lists {
				lists = append(lists, live[:n])
			}
		}
		// The live sources of batch 0: the ones a condensed call runs on the
		// level loop.
		batch0 := live[:sort.SearchInts(live, 8)]
		for kname, build := range kernels {
			for _, sources := range lists {
				name := fmt.Sprintf("%s %s sources=%d", gc.name, kname, len(sources))
				var oc pg.Counters
				om, oss := analyzeMeter()
				want, wantIdle := perSourcePairs(t, build(&oc), sources, om)
				oracle := oss.Snapshot()
				if len(sources) == 1 {
					wantIdle = 0 // a list of one runs Kernel.Sweep
				}
				idled += wantIdle

				var first pg.CountersSnapshot
				var firstJSON []byte
				for _, workers := range []int{1, 2, 4} {
					var c pg.Counters
					m, ss := analyzeMeter()
					got, err := sweepAllPairs(build(&c), sources, workers, m)
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
					if (snap.Condensed != nil) != (counters.CondensationsBuilt == 1) || counters.CondensationsBuilt > 1 {
						t.Fatalf("%s workers=%d: %d condensations built, telemetry %+v", name, workers, counters.CondensationsBuilt, snap.Condensed)
					}
					if workers == 1 {
						first, firstJSON = counters, js
						// One visit is one (source, state) discovery, level by
						// level: only edges, direction and peak may differ.
						levels := oracle
						if cs := snap.Condensed; cs != nil {
							bought++
							bm, bss := analyzeMeter()
							perSourcePairs(t, build(nil), batch0, bm)
							levels = bss.Snapshot()
							if sources != nil || cs.Sources != oracle.Sweeps-levels.Sweeps || cs.States <= 0 || cs.States > om.States() ||
								cs.Components <= 0 || cs.Components > cs.States || cs.LargestComponent <= 0 {
								t.Fatalf("%s: condensed block %+v beside %d per-source sweeps, %d of them in batch 0", name, *cs, oracle.Sweeps, levels.Sweeps)
							}
						} else if sources == nil && len(live) >= 329 {
							stayed++
						}
						if snap.Sweeps != oracle.Sweeps || snap.States != oracle.States || len(snap.Levels) != len(levels.Levels) || snap.IdleSources != wantIdle {
							t.Fatalf("%s: telemetry %+v, per-source sweeps recorded %+v, %d of them idle", name, snap, oracle, wantIdle)
						}
						for i, l := range snap.Levels {
							if o := levels.Levels[i]; l.Sweeps != o.Sweeps || l.Frontier != o.Frontier || l.Discovered != o.Discovered {
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
			}
		}
	}
	if bought < 10 || stayed < 10 {
		t.Fatalf("%d calls condensed, %d calls with as many batches stayed on the level loop: the generator no longer covers both sides of the rule", bought, stayed)
	}
	if idled < 10000 {
		t.Fatalf("%d idle sources over the whole run: the generators no longer exercise the idle rule", idled)
	}
}

// TestIdleSourcesChargedNotSwept pins what the idle rule is for. On
// scalefree-20000 one edge in sixteen is a b, so under `b b b` three nodes in
// four have no edge to take: they are charged their start state and the
// batches pack the rest, 64 to a word — a quarter of the batches one per 64
// nodes made — while the meter reads what 20 000 sweeps read. A states budget
// smaller than the idle charge alone trips as it always did.
func TestIdleSourcesChargedNotSwept(t *testing.T) {
	g, err := gen.Named("scalefree-20000")
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := g.LabelID("b")
	moving := 0
	for u := 0; u < g.NumNodes(); u++ {
		if len(g.OutWithLabel(u, lb)) > 0 {
			moving++
		}
	}
	const states = 28850 // what one Kernel.Sweep per node charges, and what the parent commit's 313 batches charged
	for _, workers := range []int{1, 4} {
		var c pg.Counters
		kern := pg.NewKernel(g, pg.FromNFA(g, mustRPQ(t, "b b b")), &c)
		m, ss := analyzeMeter()
		pairs, err := sweepAllPairs(kern, nil, workers, m)
		if err != nil {
			t.Fatal(err)
		}
		snap := ss.Snapshot()
		if m.States() != states || c.Snapshot().StatesExpanded != states || snap.States != states || snap.Sweeps != 20000 {
			t.Errorf("workers=%d: meter %d, counter %d, telemetry %d states over %d sweeps; want %d over 20000",
				workers, m.States(), c.Snapshot().StatesExpanded, snap.States, snap.Sweeps, states)
		}
		if int(snap.IdleSources) != 20000-moving || moving > 5000 {
			t.Errorf("workers=%d: %d idle sources, want %d (%d nodes have a b edge)", workers, snap.IdleSources, 20000-moving, moving)
		}
		if got, limit := c.Snapshot().BatchesRun, int64((moving+63)/64+1); got > limit || got == 0 {
			t.Errorf("workers=%d: %d batches run for %d sources that move, want at most %d", workers, got, moving, limit)
		}
		if len(pairs) == 0 || int64(len(pairs)) != m.Rows() {
			t.Errorf("workers=%d: %d pairs, %d rows charged", workers, len(pairs), m.Rows())
		}
	}

	var c pg.Counters
	kern := pg.NewKernel(g, pg.FromNFA(g, mustRPQ(t, "b b b")), &c)
	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1000}, nil, nil)
	_, err = sweepAllPairs(kern, nil, 1, m)
	var be *pg.BudgetError
	if !errors.As(err, &be) || err.Error() != "eval: states budget exceeded (limit 1000)" {
		t.Fatalf("got %v, want the states budget error", err)
	}
	if m.States() <= 1000 || m.States() > 1000+pg.CheckInterval {
		t.Errorf("budget of 1000 states tripped at %d, want within one check interval past it", m.States())
	}
}

// TestSweepAllSharesEdgeScans pins what batching is for: on a graph whose
// sources reach the same hubs, the batched loop examines several times
// fewer adjacency entries than per-source sweeps.
func TestSweepAllSharesEdgeScans(t *testing.T) {
	g := gen.ScaleFree(800, 4, 42)
	expr := mustRPQ(t, "a* b a")
	var oc, c pg.Counters
	want, _ := perSourcePairs(t, pg.NewKernel(g, pg.FromNFA(g, expr), &oc), nil, nil)
	got, err := sweepAllPairs(pg.NewKernel(g, pg.FromNFA(g, expr), &c), nil, 1, nil)
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
		err := kern.SweepFrom(sources, 2, m, true, func(part pg.Runs) error {
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
	err = kern.SweepAll(workers, mt, true, func(part pg.Runs) error {
		for _, u := range part.Src {
			sources = append(sources, int(u))
		}
		rows += part.Len()
		return nil
	})
	return sources, rows, err
}

// TestSweepAllRowsBudgetExact: rows are charged source by source at
// delivery, so a MaxRows budget trips with the meter reading exactly
// MaxRows+1 and every source before the tripping one — in an earlier batch
// or in its own — already delivered whole, at any worker count and whichever
// loop the batches ran: the clique's two stay on the level loop, the cycle's
// nine condense after the first.
func TestSweepAllRowsBudgetExact(t *testing.T) {
	for _, fx := range []struct {
		name, query string
		g           *graph.Graph
		perSource   int
		condenses   int64
		cases       []struct{ maxRows, delivered int }
	}{
		{"clique-70", "a", gen.Clique(70, "a"), 69, 0, []struct{ maxRows, delivered int }{
			{3, 0},           // inside the first source
			{69*2 + 5, 2},    // inside the first batch
			{69 * 8, 8},      // first row of the second batch
			{69*65 + 68, 65}, // last row of a source in the second batch
		}},
		{"cycle-520", "a*", gen.Cycle(520, "a"), 520, 1, []struct{ maxRows, delivered int }{
			{3, 0},               // inside the first source
			{520 * 8, 8},         // first row of the first condensed batch
			{520*75 + 519, 75},   // last row of a source in the second condensed batch
			{520*519 + 100, 519}, // inside the last source
		}},
	} {
		for _, tc := range fx.cases {
			for _, workers := range []int{1, 4} {
				var c pg.Counters
				kern := pg.NewKernel(fx.g, pg.FromNFA(fx.g, mustRPQ(t, fx.query)), &c)
				m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: int64(tc.maxRows)}, nil, nil)
				sources, rows, err := collectSources(kern, workers, m)
				var be *pg.BudgetError
				if !errors.As(err, &be) || be.Resource != "rows" {
					t.Fatalf("%s MaxRows=%d workers=%d: got %v, want a rows BudgetError", fx.name, tc.maxRows, workers, err)
				}
				if m.Rows() != int64(tc.maxRows)+1 {
					t.Errorf("%s MaxRows=%d workers=%d: meter read %d rows at trip, want exactly MaxRows+1", fx.name, tc.maxRows, workers, m.Rows())
				}
				if len(sources) != tc.delivered || rows != fx.perSource*tc.delivered {
					t.Errorf("%s MaxRows=%d workers=%d: %d sources (%d rows) delivered before the trip, want %d whole sources",
						fx.name, tc.maxRows, workers, len(sources), rows, tc.delivered)
				}
				// A budget that trips inside batch 0 stops the call before it
				// could buy.
				if got, want := c.Snapshot().CondensationsBuilt, fx.condenses; tc.delivered >= 8 && got != want {
					t.Errorf("%s MaxRows=%d workers=%d: %d condensations built, want %d", fx.name, tc.maxRows, workers, got, want)
				}
			}
		}
		kern, _ := sweepKernels(t, fx.g, fx.query)
		all := fx.perSource * fx.g.NumNodes()
		m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: int64(all)}, nil, nil)
		if _, rows, err := collectSources(kern, 4, m); err != nil || rows != all {
			t.Fatalf("%s, budget equal to the result: (%d rows, %v), want all %d", fx.name, rows, err, all)
		}
	}
}

// TestSweepAllStatesBudgetAndReuse: the states budget trips mid-batch, and
// the pooled batch it poisoned is cleared before its next use.
func TestSweepAllStatesBudgetAndReuse(t *testing.T) {
	g := gen.Clique(40, "a")
	kern, _ := sweepKernels(t, g, "a* a*")
	want, _ := perSourcePairs(t, kern, nil, nil)
	for _, workers := range []int{1, 4} {
		m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 300}, nil, nil)
		_, err := sweepAllPairs(kern, nil, workers, m)
		var be *pg.BudgetError
		if !errors.As(err, &be) || be.Resource != "states" {
			t.Fatalf("workers=%d: got %v, want a states BudgetError", workers, err)
		}
		// The whole product is 40·40·3 (source, state) pairs; the trip must
		// come at the first tick past the budget, not after the batch.
		if m.States() > 300+2*pg.CheckInterval*int64(workers) {
			t.Errorf("workers=%d: %d states ticked before a 300-state budget stopped the sweep", workers, m.States())
		}
		got, err := sweepAllPairs(kern, nil, workers, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: batch poisoned by the error path: (%d pairs, %v), want %d", workers, len(got), err, len(want))
		}
	}
}

// canceledWhen is a context that reports cancellation from the first Err
// poll at which when() holds: a cancel that lands at a known point of the
// evaluation.
type canceledWhen struct {
	context.Context
	polls int
	when  func(polls int) bool
}

func (c *canceledWhen) Done() <-chan struct{} { return make(chan struct{}) }

func (c *canceledWhen) Err() error {
	if c.polls++; c.when(c.polls) {
		return context.Canceled
	}
	return nil
}

// TestSweepAllCancelWithinOneCheckInterval: a long cycle shares nothing, so
// on the level loop every frontier entry discovers one (source, state) pair
// and the meter ticks every CheckInterval of them exactly; a cancel that
// becomes visible at the third tick must stop batch 0 right there. The rest
// of the call is condensed, and there the cycle is one component: a batch
// pops 2 000 states × 64 sources = 128 000 discoveries at once, charged in
// CheckInterval steps, so a cancel — or a states budget — that lands three
// intervals into the first condensed batch stops it at that tick too.
func TestSweepAllCancelWithinOneCheckInterval(t *testing.T) {
	g := gen.Cycle(2000, "a")
	const batch0 = 8 * 2001 // what the level loop charges before the call buys: per source its start state and 2 000 more
	run := func(b pg.Budget, when func(m *pg.Meter, polls int) bool) (*pg.Meter, pg.CountersSnapshot, error) {
		var c pg.Counters
		kern := pg.NewKernel(g, pg.FromNFA(g, mustRPQ(t, "a*")), &c)
		var m *pg.Meter
		m = pg.NewMeter(&canceledWhen{Context: context.Background(), when: func(polls int) bool { return when(m, polls) }}, b, nil, nil)
		_, err := sweepAllPairs(kern, nil, 1, m)
		return m, c.Snapshot(), err
	}

	m, c, err := run(pg.Budget{}, func(_ *pg.Meter, polls int) bool { return polls >= 3 })
	if !errors.Is(err, pg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if got := m.States(); got < 3*pg.CheckInterval || got >= 4*pg.CheckInterval || c.CondensationsBuilt != 0 {
		t.Fatalf("sweep stopped at %d states with %d condensations, want within one check interval of the third tick (%d), in batch 0",
			got, c.CondensationsBuilt, 3*pg.CheckInterval)
	}

	const landing = batch0 + 3*pg.CheckInterval
	m, c, err = run(pg.Budget{}, func(m *pg.Meter, _ int) bool { return m.States() >= landing })
	if !errors.Is(err, pg.ErrCanceled) || c.CondensationsBuilt != 1 {
		t.Fatalf("got %v after %d condensations, want ErrCanceled inside a condensed batch", err, c.CondensationsBuilt)
	}
	if got := m.States(); got < landing || got >= landing+pg.CheckInterval {
		t.Fatalf("condensed batch stopped at %d states, want within one check interval of %d", got, landing)
	}

	m, c, err = run(pg.Budget{MaxStates: landing}, func(*pg.Meter, int) bool { return false })
	var be *pg.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" || c.CondensationsBuilt != 1 {
		t.Fatalf("got %v after %d condensations, want a states BudgetError inside a condensed batch", err, c.CondensationsBuilt)
	}
	if got := m.States(); got <= landing || got > landing+pg.CheckInterval {
		t.Fatalf("condensed batch stopped at %d states, want within one check interval past a budget of %d", got, landing)
	}
}

// TestSweepAllBuildStoppedLeavesNothing: a cancel that lands inside the
// build — after batch 0 has been emitted, three polls into numbering the
// product — ends the call with nothing charged beyond batch 0 and nothing
// built or kept; the next call on that kernel, on the same pooled scratch,
// builds once and is exact, and the one after it runs on what that call
// kept and is exact. So is every call after a panic in the consumer, which
// is contained whether it strikes on the caller's goroutine (a cold call's
// batch 0 emit, before the build) or under the fan-out (a condensed batch's,
// after it): the cold call builds and keeps exactly when the panic strikes
// after the build, and a call on a kept condensation builds nothing.
func TestSweepAllBuildStoppedLeavesNothing(t *testing.T) {
	g := gen.Cycle(2000, "a")
	var c pg.Counters
	fresh := func() *pg.Kernel { return pg.NewKernel(g, pg.FromNFA(g, mustRPQ(t, "a*")), &c) }
	exact := func(kern *pg.Kernel, after string, builds int64) {
		t.Helper()
		before := c.Snapshot().CondensationsBuilt
		rows := 0
		err := kern.SweepAll(1, nil, true, func(part pg.Runs) error {
			// Row r is (r / 2000, r % 2000): every source reaches the whole
			// cycle, and a call carries whole sources.
			for i, u := range part.Src {
				tgts := part.Targets(i)
				if int(u) != rows/2000 || len(tgts) != 2000 {
					t.Fatalf("after %s: row %d starts a run of %d targets from %d, want 2000 from %d", after, rows, len(tgts), u, rows/2000)
				}
				for v, got := range tgts {
					if int(got) != v {
						t.Fatalf("after %s: row %d is (%d, %d), want (%d, %d)", after, rows+v, u, got, u, v)
					}
				}
				rows += len(tgts)
			}
			return nil
		})
		if err != nil || rows != 2000*2000 || c.Snapshot().CondensationsBuilt != before+builds {
			t.Fatalf("after %s: (%d rows, %v), %d condensations built; want all %d rows and %d built", after, rows, err,
				c.Snapshot().CondensationsBuilt-before, 2000*2000, builds)
		}
	}
	exact(fresh(), "nothing", 1)

	kern := fresh()
	emitted, armedAt := 0, 0
	ctx := &canceledWhen{Context: context.Background()}
	ctx.when = func(polls int) bool { return armedAt > 0 && polls >= armedAt+3 }
	m := pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	err := kern.SweepAll(1, m, true, func(part pg.Runs) error {
		emitted += part.Len()
		armedAt = ctx.polls
		return nil
	})
	if !errors.Is(err, pg.ErrCanceled) || emitted != 8*2000 || m.States() != 8*2001 || c.Snapshot().CondensationsBuilt != 1 {
		t.Fatalf("cancel inside the build: %v, %d rows emitted, %d states, %d condensations; want ErrCanceled after batch 0 alone",
			err, emitted, m.States(), c.Snapshot().CondensationsBuilt)
	}
	exact(kern, "a canceled build", 1)
	exact(kern, "a kept condensation", 0)

	for _, workers := range []int{1, 4} {
		for _, strike := range []int{1, 3} { // batch 0's emit, a condensed batch's
			kern := fresh()
			for _, warm := range []bool{false, true} {
				calls := 0
				err := kern.SweepAll(workers, nil, true, func(pg.Runs) error {
					if calls++; calls == strike {
						panic("boom")
					}
					return nil
				})
				var panicked *pg.PanicError
				if !errors.As(err, &panicked) || panicked.Value != "boom" || len(panicked.Stack) == 0 {
					t.Fatalf("workers=%d warm=%v, panic in emit call %d: got %v, want the recovered panic", workers, warm, strike, err)
				}
				builds := int64(0)
				if !warm && strike == 1 {
					builds = 1
				}
				exact(kern, "a panic", builds)
			}
		}
	}
}

// TestSweepAllKeepsTheCondensation: the first call that buys a condensation
// keeps it on the kernel, and every later call runs all of its batches on
// it — batch 0 included, with no probe and no build — at any worker count.
// Ten warm calls build nothing more, and each hands back exactly the pairs
// and charges exactly the states of one Kernel.Sweep per source and of a
// call on a fresh kernel. Their analyze telemetry reports the kept
// condensation with no levels: every source is counted in the condensed
// block, and the edges are the DAG edges the batches walked, without the
// build's or batch 0's.
func TestSweepAllKeepsTheCondensation(t *testing.T) {
	for _, fx := range []struct {
		name, query string
		g           *graph.Graph
	}{
		{"cycle-520", "a*", gen.Cycle(520, "a")},
		{"scalefree-400", "a* b a", gen.ScaleFree(400, 3, 7)},
		{"tangle-overlay", "a*", tangleOverlay(t, 3, 343)},
	} {
		expr := mustRPQ(t, fx.query)
		build := func(c *pg.Counters) *pg.Kernel { return pg.NewKernel(fx.g, pg.FromNFA(fx.g, expr), c) }
		om, _ := analyzeMeter()
		want, _ := perSourcePairs(t, build(nil), nil, om)

		var c pg.Counters
		kern := build(&c)
		cm, css := analyzeMeter()
		got, err := sweepAllPairs(kern, nil, 1, cm)
		cold := css.Snapshot()
		if err != nil || !slices.Equal(got, want) || cm.States() != om.States() {
			t.Fatalf("%s cold: (%d pairs, %v), %d states; per-source sweeps read %d pairs, %d states", fx.name, len(got), err, cm.States(), len(want), om.States())
		}
		if c.Snapshot().CondensationsBuilt != 1 || cold.Condensed == nil || len(cold.Levels) == 0 {
			t.Fatalf("%s cold: %d condensations built, telemetry %+v; the fixture no longer condenses", fx.name, c.Snapshot().CondensationsBuilt, cold)
		}
		for call := 0; call < 10; call++ {
			workers := []int{1, 4}[call%2]
			m, ss := analyzeMeter()
			got, err := sweepAllPairs(kern, nil, workers, m)
			if err != nil || !slices.Equal(got, want) || m.States() != om.States() || m.Rows() != om.Rows() {
				t.Fatalf("%s warm call %d workers=%d: (%d pairs, %v), %d states, %d rows; want %d pairs, %d states, %d rows",
					fx.name, call, workers, len(got), err, m.States(), m.Rows(), len(want), om.States(), om.Rows())
			}
			if n := c.Snapshot().CondensationsBuilt; n != 1 {
				t.Fatalf("%s warm call %d: %d condensations built, want the first one kept", fx.name, call, n)
			}
			warm := ss.Snapshot()
			cs, kept := warm.Condensed, *cold.Condensed
			kept.Sources = cold.Sweeps
			if cs == nil || *cs != kept || len(warm.Levels) != 0 || warm.PeakFrontier != 0 || warm.Alpha != 0 ||
				warm.Sweeps != cold.Sweeps || warm.States != cold.States || warm.IdleSources != cold.IdleSources || warm.Edges >= cold.Edges {
				t.Fatalf("%s warm call %d: telemetry %+v (condensed %+v); the cold call read %+v (condensed %+v)", fx.name, call, warm, cs, cold, *cold.Condensed)
			}
		}
	}
}

// TestSweepAllConcurrentColdCallsKeepOne: cold calls that race on one kernel
// may each build, but one condensation is published and counted, and every
// call — the ones that lost, and the ones after — is exact.
func TestSweepAllConcurrentColdCallsKeepOne(t *testing.T) {
	g := gen.ScaleFree(400, 3, 7)
	expr := mustRPQ(t, "a* b a")
	want, _ := perSourcePairs(t, pg.NewKernel(g, pg.FromNFA(g, expr), nil), nil, nil)
	var c pg.Counters
	kern := pg.NewKernel(g, pg.FromNFA(g, expr), &c)
	const callers = 6
	results := make(chan error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		go func() {
			<-start
			got, err := sweepAllPairs(kern, nil, 1+i%2, nil)
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("%d pairs, want %d", len(got), len(want))
			}
			results <- err
		}()
	}
	close(start)
	for i := 0; i < callers; i++ {
		if err := <-results; err != nil {
			t.Fatalf("concurrent cold call: %v", err)
		}
	}
	if got, err := sweepAllPairs(kern, nil, 2, nil); err != nil || !slices.Equal(got, want) {
		t.Fatalf("call after the race: (%d pairs, %v), want %d", len(got), err, len(want))
	}
	if n := c.Snapshot().CondensationsBuilt; n != 1 {
		t.Fatalf("%d condensations published by %d racing cold calls and one warm one, want 1", n, callers)
	}
}
