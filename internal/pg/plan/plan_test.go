package plan_test

import (
	"fmt"
	"reflect"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/pg/plan"
	"graphquery/internal/rpq"
)

// skewed builds a graph with many a-edges (a long cycle plus chords) and a
// single b-edge, so queries ending in b are far cheaper to run backward.
func skewed() *graph.Graph {
	b := graph.NewBuilder()
	const n = 40
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("v%d", i)) }
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	e := 0
	add := func(lab string, s, t int) {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", e)), lab, id(s), id(t), nil)
		e++
	}
	for i := 0; i < n; i++ {
		add("a", i, (i+1)%n)
		add("a", i, (i+7)%n)
		add("a", i, (i+13)%n)
	}
	add("b", 0, 1)
	return b.MustBuild()
}

func compile(t *testing.T, q string) (rpq.Expr, *plan.Planner, pg.Plan) {
	t.Helper()
	return compileOn(t, skewed(), q)
}

func compileOn(t *testing.T, g *graph.Graph, q string) (rpq.Expr, *plan.Planner, pg.Plan) {
	t.Helper()
	expr, err := rpq.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.New(g)
	return expr, p, p.ForNFA(rpq.Compile(expr), 1, 0)
}

func TestPlannerPicksBackwardForSelectiveSuffix(t *testing.T) {
	_, _, pl := compile(t, "a* b")
	if !pl.Backward {
		t.Fatalf("a* b over a-heavy graph should run backward, got %s", pl)
	}
}

func TestPlannerKeepsForwardForSelectivePrefix(t *testing.T) {
	_, _, pl := compile(t, "b a*")
	if pl.Backward {
		t.Fatalf("b a* over a-heavy graph should run forward, got %s", pl)
	}
}

func TestPlannerParallelismDegree(t *testing.T) {
	// Tiny graph: the estimated work cannot amortize a worker pool.
	expr, err := rpq.Parse("a*")
	if err != nil {
		t.Fatal(err)
	}
	small := plan.New(gen.APath(4, "a")).ForNFA(rpq.Compile(expr), 8, 0)
	if small.Workers != 1 {
		t.Fatalf("tiny graph should stay sequential, got %s", small)
	}
	big := plan.New(gen.Random(2000, 8000, []string{"a"}, 3)).ForNFA(rpq.Compile(expr), 8, 0)
	if big.Workers != 8 {
		t.Fatalf("large estimate should use the full worker cap, got %s", big)
	}
}

// TestPlannedEvaluationMatchesDefault: whatever the planner chooses, the
// answer set is byte-identical to the default forward plan's.
func TestPlannedEvaluationMatchesDefault(t *testing.T) {
	queries := []string{"a", "a* b", "b a*", "(a | b)+", "!{b} a*"}
	graphs := []*graph.Graph{
		skewed(),
		gen.Random(30, 120, []string{"a", "b"}, 11),
		gen.Clique(6, "a"),
	}
	for gi, g := range graphs {
		p := plan.New(g)
		for _, q := range queries {
			expr, err := rpq.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			nfa := rpq.Compile(expr)
			prod := eval.NewProduct(g, nfa)
			want := eval.PairsProduct(prod, eval.Options{})
			got := eval.PairsProduct(prod, eval.Options{Plan: p.ForNFA(nfa, 4, 0)})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d query %q plan %s: %v != default %v",
					gi, q, p.ForNFA(nfa, 4, 0), got, want)
			}
		}
	}
}

func TestPlannerEmptyGraph(t *testing.T) {
	expr, err := rpq.Parse("a*")
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.New(graph.NewBuilder().MustBuild()).ForNFA(rpq.Compile(expr), 8, 0)
	if pl != (pg.Plan{}) {
		t.Fatalf("empty graph should plan the zero plan, got %s", pl)
	}
}
