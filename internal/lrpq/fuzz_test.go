package lrpq

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// fuzzGraph is the fixed graph FuzzShortest evaluates on (the one
// crpq.FuzzParse uses): twelve nodes n0…n11, an a-labelled and a b-labelled
// edge out of each, laid out so that both labels have cycles, self-loops
// and nodes of in-degree zero.
func fuzzGraph() *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 12; i++ {
		b.AddNode(id(i), "", nil)
	}
	for i := 0; i < 12; i++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("a%d", i)), "a", id(i), id((i*5+2)%12), nil)
		b.AddEdge(graph.EdgeID(fmt.Sprintf("b%d", i)), "b", id(i), id((i*i+3)%12), nil)
	}
	return b.MustBuild()
}

// FuzzShortest covers the parser every anchored path query on the network
// reaches, and the evaluator behind its shortest mode: no input panics
// Parse; what parses prints to a text that parses back to the same
// expression; and for automata of at most 64 positions, between all 144
// pairs of fuzzGraph, shortest mode returns exactly what the definition
// gives — every (p, µ) of mode all no longer than the shortest distance,
// cut down to minimal length — in the same order, and with limit 2 its
// first two; where it returns nothing, eval.Check finds no path either. Both sides run under a states budget; a pair whose answer or
// whose oracle outgrows it ((a|b){30} has 2³⁰ shortest paths) is skipped.
func FuzzShortest(f *testing.F) {
	for _, s := range []string{
		"a*",
		// README, PAPER.md Examples 16 and 17
		"(Transfer^z)+", "(a a^z | a^z a)*", "(Transfer^z)* isBlocked",
		// the generated differential's list (crossval/shortest_test.go)
		"(a|b)*", "a b* a", "!{b}* b", "a{2,4}", "(a|a)* b?",
		"(a^z)+", "(a^x | b^y)* a", "(a^z | a)* b^y",
		"_^z _", "(a* b*)*", "() | a", "'a b'^'0 z'",
	} {
		f.Add(s)
	}
	g := fuzzGraph()
	format := func(pbs []gpath.PathBinding) string {
		out := make([]string, len(pbs))
		for i, pb := range pbs {
			out[i] = pb.Path.Format(g) + " " + pb.Binding.Format(g)
		}
		return fmt.Sprint(out)
	}
	f.Fuzz(func(t *testing.T, text string) {
		e, err := Parse(text)
		if err != nil {
			return
		}
		printed := e.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
		erased := Erase(e)
		if rpq.Positions(erased, 1<<10) > 64 {
			return
		}
		plan := NewPlan(g, e, nil)
		budget := func(states int64) *eval.Meter {
			return eval.NewMeter(context.Background(), eval.Budget{MaxStates: states})
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				got, err := plan.Between(u, v, eval.Shortest, Options{Meter: budget(2000)})
				if errors.Is(err, eval.ErrBudgetExceeded) {
					continue
				}
				if err != nil {
					t.Fatalf("%q %d→%d: %v", text, u, v, err)
				}
				// The definition needs a bound: the claimed distance. A
				// shorter accepted path shows up under it and wins the cut;
				// a claim of no path at all is checked on Kernel.BFS.
				var want []gpath.PathBinding
				if len(got) > 0 {
					all, err := plan.Between(u, v, eval.All, Options{MaxLen: max(got[0].Path.Len(), 1), Meter: budget(20000)})
					if errors.Is(err, eval.ErrBudgetExceeded) {
						continue
					}
					if err != nil {
						t.Fatalf("%q %d→%d mode all: %v", text, u, v, err)
					}
					for _, pb := range all {
						if pb.Path.Len() == all[0].Path.Len() {
							want = append(want, pb)
						}
					}
				} else if eval.Check(g, erased, u, v) {
					t.Fatalf("%q %d→%d: no shortest path, but the pair is in the expression's answer", text, u, v)
				}
				if format(got) != format(want) {
					t.Fatalf("%q %d→%d: shortest %s, by definition %s", text, u, v, format(got), format(want))
				}
				cut, err := plan.Between(u, v, eval.Shortest, Options{Limit: 2, Meter: budget(2000)})
				if err != nil || format(cut) != format(want[:min(2, len(want))]) {
					t.Fatalf("%q %d→%d limit 2: %s (err %v), want the first two of %s", text, u, v, format(cut), err, format(want))
				}
			}
		}
	})
}
