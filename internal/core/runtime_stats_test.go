package core

import (
	"strings"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
)

// TestRuntimeStats: every evaluator the engine dispatches to accounts its
// work in the shared kernel counters, and plan choices are recorded.
func TestRuntimeStats(t *testing.T) {
	e := New(gen.Random(30, 120, []string{"a", "b"}, 5))
	if s := e.RuntimeStats(); s != (e.RuntimeStats()) || s.StatesExpanded != 0 {
		t.Fatalf("fresh engine should have zero counters: %+v", s)
	}

	if _, err := e.Pairs("a b*"); err != nil {
		t.Fatal(err)
	}
	s := e.RuntimeStats()
	if s.StatesExpanded == 0 || s.EdgesScanned == 0 || s.FrontierPeak == 0 {
		t.Fatalf("RPQ pairs should move the work counters: %+v", s)
	}
	if s.PlanForward+s.PlanBackward == 0 {
		t.Fatalf("plan choice not recorded: %+v", s)
	}

	if _, err := e.TwoWayPairs("a ~b"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Paths("a*", "v0", "v1", eval.Shortest); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Paths("() [a] ()", "v0", "v1", eval.Shortest); err != nil {
		t.Fatal(err)
	}
	after := e.RuntimeStats()
	if after.StatesExpanded <= s.StatesExpanded {
		t.Fatalf("two-way, lrpq, and dlrpq queries should add states: %+v -> %+v", s, after)
	}
}

// TestRuntimeStatsCRPQ: a CRPQ's atom sweeps run on the plan's instrumented
// kernels, so they show in the counters like any other sweep. (They ran on
// counter-less products once, and /v1/statz read zero states and edges
// after a triangle query.)
func TestRuntimeStatsCRPQ(t *testing.T) {
	e := New(gen.Random(30, 120, []string{"a", "b"}, 5))
	for _, q := range []string{"q(x, y, z) :- a(x, y), a(y, z), a(z, x)", "q(y) :- a b(@v0, y)"} {
		before := e.RuntimeStats()
		if _, err := e.Rows(q); err != nil {
			t.Fatal(err)
		}
		after := e.RuntimeStats()
		if after.StatesExpanded <= before.StatesExpanded || after.EdgesScanned <= before.EdgesScanned {
			t.Errorf("%s: counters did not move: %+v -> %+v", q, before, after)
		}
	}
}

// TestExplainPlanLine: Explain surfaces the chosen plan.
func TestExplainPlanLine(t *testing.T) {
	e := New(gen.Random(20, 60, []string{"a", "b"}, 2))
	out, err := e.Explain("a b*")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"plan:", "dir=", "workers="} {
		if !strings.Contains(out, sub) {
			t.Fatalf("Explain should include the plan line (missing %q):\n%s", sub, out)
		}
	}
}
