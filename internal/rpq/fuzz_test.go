package rpq_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// fuzzGraph is the fixed graph FuzzParse evaluates on, left as an overlay:
// 80 nodes — two a-cycles of 24 and 16 nodes with b chords, joined by one z
// edge from the first into the second; a 30-node a-path hanging off the
// second, every fifth edge doubled by a b edge; ten isolated nodes, one
// with an a self-loop — and a tombstone in each cycle and on the path.
func fuzzGraph() *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprint("n", i)) }
	for i := 0; i < 80; i++ {
		b.AddNode(id(i), "", nil)
	}
	edges := 0
	add := func(label string, u, v int) {
		b.AddEdge(graph.EdgeID(fmt.Sprint("e", edges)), label, id(u), id(v), nil)
		edges++
	}
	for i := 0; i < 24; i++ {
		add("a", i, (i+1)%24)
		if i%4 == 0 {
			add("b", i, (i*7+3)%24)
			add("a", i, (i+2)%24) // survives the tombstone at n1
		}
	}
	for i := 0; i < 16; i++ {
		add("a", 24+i, 24+(i+1)%16)
		add("a", 24+i, 24+(i+2)%16)
		if i%3 == 0 {
			add("b", 24+(i*5+1)%16, 24+i)
		}
	}
	add("z", 5, 30)
	add("a", 39, 40)
	for i := 40; i < 69; i++ {
		add("a", i, i+1)
		if i%5 == 0 {
			add("b", i, i+1)
			add("a", i, i+2)
		}
	}
	add("a", 75, 75)
	g, err := b.MustBuild().Apply([]graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n1"},
		{Op: graph.MutRemoveNode, ID: "n33"},
		{Op: graph.MutRemoveNode, ID: "n51"},
	})
	if err != nil {
		panic(err)
	}
	return g
}

// FuzzParse covers the parser behind every all-pairs query and the served
// path under it: no input panics Parse; what parses prints to a text that
// parses back to the same expression; the engine refuses what
// rpq.CheckPositions refuses before compiling it; and for automata of at
// most 64 positions the engine's all-pairs answer on fuzzGraph is, row for
// row, what one Kernel.Sweep per live source returns. (The engine compiles
// up to rpq.MaxPositions; the differential stops earlier because a run must
// stay short: the per-source reference scans every transition of every
// state once per source, eight seconds' worth at 512 positions.)
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"a*", "b b b",
		// PAPER.md Examples 1–3: a pattern repeated is not its expansion
		// repeated, and the regular-expression identities that still hold
		"a{2}", "a a", "(a a)*", "(a{2})*", "(a | a a)*", "a* b",
		// README
		"Transfer*", "Transfer+", "Transfer Transfer", "(a b)*", "a{2,5}", "a | b", "!{a,b}", "_",
		// bench/'s allpairs-sweep (the 2RPQ as its one-way part)
		"a* z a", "(!{b})* z a", "(a|b)* z (a|b)", "(a|z)* z", "a* z",
		// what the served path refuses
		"a*++++++++++++", "(a a a a){1,4611686018427387904}",
	} {
		f.Add(s)
	}
	g := fuzzGraph()
	engine := core.New(g)
	engine.Parallelism = 1
	f.Fuzz(func(t *testing.T, text string) {
		expr, err := rpq.Parse(text)
		if err != nil {
			return
		}
		printed := expr.String()
		back, err := rpq.Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
		if rpq.CheckPositions(expr) != nil {
			if _, err := engine.Pairs(text); !errors.Is(err, core.ErrBadQuery) || !errors.Is(err, rpq.ErrTooLarge) {
				t.Fatalf("%q is past the positions bound and the engine said %v", text, err)
			}
			return
		}
		if rpq.Positions(expr, 1<<10) > 64 {
			return
		}
		got, err := engine.Pairs(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		var want [][2]graph.NodeID
		kern := eval.CompileProduct(g, expr).Kernel()
		sc := kern.NewScratch()
		for u := 0; u < g.NumNodes(); u++ {
			if !g.NodeAlive(u) {
				continue
			}
			vs, err := kern.Sweep(u, sc, nil, pg.Plan{}, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				want = append(want, [2]graph.NodeID{g.Node(u).ID, g.Node(v).ID})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: the engine returned %d pairs, per-source sweeps %d\n got %v\nwant %v", text, len(got), len(want), got, want)
		}
	})
}
