package eval

import (
	"reflect"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// parallelCases are the RPQs cross-checked between the sequential and
// parallel Pairs paths: plain labels, stars, unions, a wildcard, a negated
// label set, and an expression matching nothing (empty result).
var parallelCases = []string{
	"a",
	"a*",
	"a b",
	"(a | b)*",
	"_*",
	"_ _",
	"!{a} b*",
	"nolabel",    // empty result: label absent from the graph
	"nolabel c*", // empty result through concatenation
}

// sortedPairs checks the output invariant that replaced the final
// sort.Slice in Pairs: results arrive lexicographically sorted because
// ascending source chunks are merged in order.
func sortedPairs(t *testing.T, prs [][2]int) {
	t.Helper()
	for i := 1; i < len(prs); i++ {
		if prs[i-1][0] > prs[i][0] ||
			(prs[i-1][0] == prs[i][0] && prs[i-1][1] >= prs[i][1]) {
			t.Fatalf("pairs not strictly lex-sorted at %d: %v, %v", i, prs[i-1], prs[i])
		}
	}
}

func TestParallelPairsMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":    gen.Random(60, 400, []string{"a", "b", "c"}, 1),
		"random2":   gen.Random(40, 600, []string{"a", "b"}, 2), // dense, self-loops likely
		"selfloops": selfLoopGraph(t),
	}
	for name, g := range graphs {
		for _, q := range parallelCases {
			expr, err := rpq.Parse(q)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, q, err)
			}
			seq := PairsOpt(g, expr, Options{Parallelism: 1})
			for _, par := range []int{0, 2, 4, 7} {
				got := PairsOpt(g, expr, Options{Parallelism: par})
				if !reflect.DeepEqual(got, seq) {
					t.Fatalf("%s: %q: parallelism %d diverged: %d pairs vs %d sequential",
						name, q, par, len(got), len(seq))
				}
			}
			sortedPairs(t, seq)
		}
	}
}

// selfLoopGraph has self-loops under every label plus a normal chain, the
// edge case where a source reaches itself in zero and in one step.
func selfLoopGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, n := range []string{"u", "v", "w"} {
		b.AddNode(graph.NodeID(n), "", nil)
	}
	b.AddEdge("l1", "a", "u", "u", nil)
	b.AddEdge("l2", "b", "v", "v", nil)
	b.AddEdge("e1", "a", "u", "v", nil)
	b.AddEdge("e2", "b", "v", "w", nil)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPairsMatchesLegacySemantics(t *testing.T) {
	// Pairs (the convenience wrapper) must agree with an explicitly
	// sequential run and with one kernel sweep per source.
	g := gen.Random(30, 150, []string{"x", "y"}, 5)
	expr, err := rpq.Parse("x y*")
	if err != nil {
		t.Fatal(err)
	}
	want := PairsOpt(g, expr, Options{Parallelism: 1})
	if got := Pairs(g, expr); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
	kern := CompileProduct(g, expr).Kernel()
	sc := kern.NewScratch()
	var fromReach [][2]int
	for u := 0; u < g.NumNodes(); u++ {
		vs, _ := kern.Sweep(u, sc, nil, false) // nil meter: cannot fail
		for _, v := range vs {
			fromReach = append(fromReach, [2]int{u, v})
		}
	}
	if !reflect.DeepEqual(fromReach, want) {
		t.Fatalf("per-source sweeps disagree with Pairs")
	}
}
