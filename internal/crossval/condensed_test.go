// All-pairs answers served on the product's condensation, seen from the
// engine: graphs with enough sources for the kernel's rent-then-buy rule to
// buy, cyclic and acyclic expressions in every all-pairs language, forward
// and backward plans, one, two and four workers — against a per-source
// search that shares no code with the kernel.
package crossval_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/core"
	"graphquery/internal/crpq"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
	"graphquery/internal/twoway"
)

// reachOracle answers all-pairs over a direction-annotated automaton — a
// plain NFA is one with no Back transition — by one search per live source
// over adjacency lists it builds itself from the graph's edge list.
func reachOracle(g *graph.Graph, a *twoway.TNFA) [][2]graph.NodeID {
	type hop struct {
		label string
		to    int
	}
	out, in := make([][]hop, g.NumNodes()), make([][]hop, g.NumNodes())
	for ei := 0; ei < g.NumEdges(); ei++ {
		if e := g.Edge(ei); g.EdgeAlive(ei) {
			out[e.Src] = append(out[e.Src], hop{e.Label, e.Tgt})
			in[e.Tgt] = append(in[e.Tgt], hop{e.Label, e.Src})
		}
	}
	var pairs [][2]graph.NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if !g.NodeAlive(u) {
			continue
		}
		seen := make([]bool, g.NumNodes()*a.NumStates)
		hit := make([]bool, g.NumNodes())
		seen[u*a.NumStates+a.Start] = true
		for queue := [][2]int{{u, a.Start}}; len(queue) > 0; queue = queue[1:] {
			v, q := queue[0][0], queue[0][1]
			hit[v] = hit[v] || a.Accept[q]
			for _, t := range a.Trans[q] {
				hops := out[v]
				if t.Back {
					hops = in[v]
				}
				for _, h := range hops {
					if id := h.to*a.NumStates + t.To; t.Guard.Matches(h.label) && !seen[id] {
						seen[id] = true
						queue = append(queue, [2]int{h.to, t.To})
					}
				}
			}
		}
		for v, ok := range hit {
			if ok {
				pairs = append(pairs, [2]graph.NodeID{g.Node(u).ID, g.Node(v).ID})
			}
		}
	}
	return pairs
}

// oneWay lifts an NFA into reachOracle's automaton.
func oneWay(a *automata.NFA) *twoway.TNFA {
	t := &twoway.TNFA{NumStates: a.NumStates, Start: a.Start, Accept: a.Accept, Trans: make([][]twoway.TTrans, a.NumStates)}
	for q, ts := range a.Trans {
		for _, tr := range ts {
			t.Trans[q] = append(t.Trans[q], twoway.TTrans{Guard: tr.Guard, To: tr.To})
		}
	}
	return t
}

// TestEngineCondensedAllPairsMatchOracle: on a 360-node scale-free graph
// with four z edges — materialized, and as an overlay with tombstoned nodes,
// removed and added edges — every all-pairs kind returns the oracle's
// pairs in the oracle's order at 1, 2 and 4 workers, with the same
// states_visited and the same analyze tree at each; starred expressions are
// answered on the condensation (the engine's counter and the analyze
// tree's condensed block both say so); `b b b` and the CRPQ's one-hop atoms
// never are, and neither is the sparse backward `a* z`. Run under -race by `make race`.
func TestEngineCondensedAllPairsMatchOracle(t *testing.T) {
	base := gen.ScaleFree(360, 3, 11)
	var muts []graph.Mutation
	for i, pair := range [][2]int{{2, 200}, {5, 310}, {9, 120}, {14, 355}} {
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, ID: fmt.Sprint("z", i), Label: "z",
			Src: fmt.Sprint("n", pair[0]), Tgt: fmt.Sprint("n", pair[1])})
	}
	withZ, err := base.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	if withZ, err = withZ.Materialize(); err != nil {
		t.Fatal(err)
	}
	muts = []graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n1"},
		{Op: graph.MutRemoveNode, ID: "n70"},
		{Op: graph.MutRemoveNode, ID: "n359"},
		{Op: graph.MutAddNode, ID: "fresh"},
		{Op: graph.MutAddEdge, ID: "fresh-in", Label: "a", Src: "n5", Tgt: "fresh"},
		{Op: graph.MutAddEdge, ID: "fresh-out", Label: "a", Src: "fresh", Tgt: "n100"},
	}
	gone := map[int]bool{1: true, 70: true, 359: true} // their edges go with them
	for ei := 0; ei < withZ.NumEdges(); ei += 37 {
		if e := withZ.Edge(ei); !gone[e.Src] && !gone[e.Tgt] {
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: string(e.ID)})
		}
	}
	overlay, err := withZ.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}

	type query struct {
		text, lang string
		condenses  bool
	}
	queries := []query{
		{"a*", "", true},
		{"a* z a", "", true},
		// The planner turns this one backward, where only the four z targets
		// reach anything: batch 0 discovers its eight start states and the
		// call cannot buy.
		{"a* z", "", false},
		{"(a|b)* z (a|b)", "", true},
		{"(!{b})* z a", "", true},
		{"(a* b)* a*", "", true},
		{"(a|~a)* z", "2rpq", true},
		{"b b b", "", false},
		{"q(x, y) :- a*(x, y), b(y, x)", "", true},
		{"q(x, y) :- a(x, y), b(y, x)", "", false},
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"materialized", withZ}, {"overlay", overlay}} {
		for _, q := range queries {
			name := gc.name + " " + q.text
			var want any
			switch {
			case q.lang == "2rpq":
				want = reachOracle(gc.g, twoway.Compile(twoway.MustParse(q.text)))
			case core.Detect(q.text) == core.KindCRPQ:
				ref, err := crpq.Eval(gc.g, crpq.MustParse(q.text), crpq.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				want = ref.Rows
			default:
				want = reachOracle(gc.g, oneWay(rpq.Compile(rpq.MustParse(q.text))))
			}
			var first string
			for _, workers := range []int{1, 2, 4} {
				e := core.New(gc.g)
				e.Parallelism = workers
				resp, err := e.Query(core.Request{Query: q.text, Lang: q.lang, Analyze: true})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				var got any = resp.Pairs
				if resp.Rows != nil {
					got = resp.Rows.Rows
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d: the engine's answer differs from the oracle's (%d rows)", name, workers, resp.Count())
				}
				built := e.RuntimeStats().CondensationsBuilt
				if condensed := resp.Analyze.Sweep != nil && resp.Analyze.Sweep.Condensed != nil; condensed != q.condenses || (built > 0) != q.condenses {
					t.Fatalf("%s workers=%d: %d condensations built, analyze sweep %+v; want condensed=%v", name, workers, built, resp.Analyze.Sweep, q.condenses)
				}
				resp.Analyze.Plan.Detail = "" // the plan line names the worker count
				js, err := json.Marshal(resp.Analyze)
				if err != nil {
					t.Fatal(err)
				}
				if seen := fmt.Sprint(resp.StatesVisited, " ", string(js)); first == "" {
					first = seen
				} else if seen != first {
					t.Fatalf("%s workers=%d: states and analyze tree depend on the worker count\n got %s\nwant %s", name, workers, seen, first)
				}
			}
		}
	}
}
