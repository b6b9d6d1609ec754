package pg_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/twoway"
)

var updateSweepStats = flag.Bool("update-sweepstats", false, "rewrite testdata/sweepstats.golden")

// hubIn is a random graph of a edges in which every node also has a b edge
// into node 0 and one into node 1: under `a b` one level's frontier entries,
// for different sources, all step into the same two accepting nodes.
func hubIn(n int) *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID("n" + strconv.Itoa(i)) }
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	base := gen.Random(n, 4*n, []string{"a"}, 21)
	for ei := 0; ei < base.NumEdges(); ei++ {
		b.AddEdge(graph.EdgeID("e"+strconv.Itoa(ei)), "a", id(base.EdgeSrc(ei)), id(base.EdgeTgt(ei)), nil)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.EdgeID("h0-"+strconv.Itoa(i)), "b", id(i), id(0), nil)
		b.AddEdge(graph.EdgeID("h1-"+strconv.Itoa(i)), "b", id(i), id(1), nil)
	}
	return b.MustBuild()
}

// goldenSweepLine runs one all-sources call on a fresh kernel under an
// analyze meter and renders what it reports: the error, the pairs' count and
// checksum, the meter's states and rows, the SweepStats snapshot and the
// kernel's Counters.
func goldenSweepLine(kern func(*pg.Counters) *pg.Kernel, sources []int, workers int, budget pg.Budget) string {
	var c pg.Counters
	k := kern(&c)
	ss := &pg.SweepStats{}
	mt := pg.NewMeter(context.Background(), budget, nil, ss)
	pairs, sum := 0, 0
	emit := func(part pg.Runs) error {
		for i, u := range part.Src {
			for _, v := range part.Targets(i) {
				pairs++
				sum = (sum*31 + int(u)*7919 + int(v)) % 1_000_000_007
			}
		}
		return nil
	}
	var err error
	if sources == nil {
		err = k.SweepAll(workers, mt, true, emit)
	} else {
		err = k.SweepFrom(sources, workers, mt, true, emit)
	}
	stats, _ := json.Marshal(ss.Snapshot())
	counters, _ := json.Marshal(c.Snapshot())
	return fmt.Sprintf("err=%v pairs=%d sum=%d states=%d rows=%d\n  stats %s\n  counters %s",
		err, pairs, sum, mt.States(), mt.Rows(), stats, counters)
}

// TestSweepStatsGolden pins what the all-sources driver reports — the
// analyze snapshot (levels, peak frontier, states, edges), the meter's states
// and rows and the kernel's counters — for SweepAll and SweepFrom at one and
// two workers, on the shapes where the level loop's bookkeeping of an
// accepting state with no transition out can differ from a state it queues:
// such a state reached at one level (`b a`, `b b b`, `a{5}`) and at several
// (`a* b`, `a a* b`), one such node reached from several frontier entries in
// one level (hubIn), a two-way automaton, automata without one (`a*`, whose
// start accepts, and `(a|b) (a|b)`, with two accepting states), a batch that
// moves onto the flat slabs (`a a` on a clique), an overlay with tombstones,
// and calls a states budget stops. Run with -update-sweepstats to rewrite the
// file.
func TestSweepStatsGolden(t *testing.T) {
	sf := gen.ScaleFree(400, 4, 42)
	rnd := gen.Random(150, 600, []string{"a", "b"}, 9)
	clique := gen.Clique(40, "a")
	hub := hubIn(160)
	over := overlayGraph(t)
	rpqKernel := func(g *graph.Graph, q string, backward bool) func(*pg.Counters) *pg.Kernel {
		nfa := mustRPQ(t, q)
		return func(c *pg.Counters) *pg.Kernel {
			if backward {
				return pg.NewKernel(g, pg.FromNFABackward(g, nfa), c)
			}
			return pg.NewKernel(g, pg.FromNFA(g, nfa), c)
		}
	}
	every := func(g *graph.Graph) []int {
		out := make([]int, g.NumNodes())
		for i := range out {
			out[i] = len(out) - 1 - i
		}
		return out
	}
	type fixture struct {
		name string
		g    *graph.Graph
		kern func(*pg.Counters) *pg.Kernel
	}
	var fixtures []fixture
	for _, gc := range []struct {
		name    string
		g       *graph.Graph
		queries []string
	}{
		{"scalefree-400", sf, []string{"b a", "b b b", "a{5}", "a* b", "a a* b", "a*", "(a|b) (a|b)"}},
		{"random-150", rnd, []string{"b a", "a* b", "a a* b", "(a|b) (a|b)"}},
		{"hub-in", hub, []string{"a b", "a a* b", "b"}},
		{"clique-40", clique, []string{"a a", "a a a"}},
		{"overlay", over, []string{"b a", "a* b", "a a* b", "a*"}},
	} {
		for _, q := range gc.queries {
			fixtures = append(fixtures,
				fixture{gc.name + " " + q, gc.g, rpqKernel(gc.g, q, false)},
				fixture{gc.name + " " + q + " bwd", gc.g, rpqKernel(gc.g, q, true)})
		}
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"scalefree-400", sf}, {"random-150", rnd}, {"overlay", over}} {
		fixtures = append(fixtures, fixture{gc.name + " 2rpq (a|~a)* b", gc.g, func(c *pg.Counters) *pg.Kernel {
			return twoway.Kernel(gc.g, twoway.MustParse("(a|~a)* b"), c)
		}})
	}

	var b strings.Builder
	for _, fx := range fixtures {
		for _, call := range []struct {
			name    string
			sources []int
		}{{"all", nil}, {"from", every(fx.g)}} {
			for _, workers := range []int{1, 2} {
				fmt.Fprintf(&b, "%s | %s | workers %d | %s\n", fx.name, call.name, workers, goldenSweepLine(fx.kern, call.sources, workers, pg.Budget{}))
			}
			// States budgets that trip at the meter's first, second, fourth
			// and eighth tick, or later: one worker, so a trip lands at one
			// place.
			for _, limit := range []int64{pg.CheckInterval - 1, 2*pg.CheckInterval - 1, 4*pg.CheckInterval - 1, 8*pg.CheckInterval - 1} {
				fmt.Fprintf(&b, "%s | %s | budget %d | %s\n", fx.name, call.name, limit,
					goldenSweepLine(fx.kern, call.sources, 1, pg.Budget{MaxStates: limit}))
			}
		}
	}

	path := filepath.Join("testdata", "sweepstats.golden")
	got := b.String()
	if *updateSweepStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("sweep telemetry differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("sweep telemetry differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
