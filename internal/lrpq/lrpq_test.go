package lrpq

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// newPlan is NewPlan on a fresh product kernel of the erased expression.
func newPlan(g *graph.Graph, e Expr) *Plan {
	return NewPlan(eval.CompileProduct(g, Erase(e)).Kernel(), e)
}

func TestParseAndString(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a", "a"},
		{"a^z", "a^z"},
		{"(Transfer^z)* isBlocked", "Transfer^z* isBlocked"},
		{"(a a^z | a^z a)*", "(a a^z | a^z a)*"},
		{"_^z", "_^z"},
		{"!{a,b}^w", "!{a,b}^w"},
		{"a{2}", "a{2}"},
		{"(a^z){2,}", "a^z{2,}"},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "a^", "a^*", "(a", "a{2,1}", "!{", "!a", "|"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestVars(t *testing.T) {
	e := MustParse("(a^z b^w | c^z)* d")
	got := Vars(e)
	if len(got) != 2 || got[0] != "w" || got[1] != "z" {
		t.Errorf("Vars = %v", got)
	}
}

func TestEraseAndFromRPQ(t *testing.T) {
	e := MustParse("(Transfer^z)+ isBlocked?")
	plain := Erase(e)
	if plain.String() != "Transfer+ isBlocked?" {
		t.Errorf("Erase = %q", plain.String())
	}
	lifted := FromRPQ(plain)
	if len(Vars(lifted)) != 0 {
		t.Error("FromRPQ must produce no variables")
	}
}

// TestExample16 reproduces Example 16: R = (Transfer^z)*·isBlocked on the
// Figure 2 graph. The expected bindings µ₁…µ₅ from the paper must all occur.
func TestExample16(t *testing.T) {
	g := gen.BankEdgeLabeled()
	e := MustParse("(Transfer^z)* isBlocked")
	results, err := Eval(g, e, Options{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Index results by (path format, binding format).
	type row struct{ path, binding string }
	got := map[row]bool{}
	for _, pb := range results {
		got[row{pb.Path.Format(g), pb.Binding.Format(g)}] = true
	}
	want := []row{
		{"path(a4, r10, yes)", "{}"},                                  // µ₁: z ↦ list()
		{"path(a2, t3, a4, r10, yes)", "{z -> list(t3)}"},             // µ₂
		{"path(a3, t2, a2, t3, a4, r10, yes)", "{z -> list(t2, t3)}"}, // µ₃
		{"path(a3, t5, a2, t3, a4, r10, yes)", "{z -> list(t5, t3)}"}, // µ₄
		{"path(a3, r9, no)", "{}"},                                    // µ₅
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing result %v", w)
		}
	}
}

// TestExample17Shortest checks the endpoint-grouped shortest semantics: for
// (Transfer^z)+ the shortest a6→a5 list is (t10) and the shortest a3→a1
// list is (t7, t4) — each endpoint pair selects its own minimum.
func TestExample17Shortest(t *testing.T) {
	g := gen.BankEdgeLabeled()
	e := MustParse("(Transfer^z)+")
	jayToRebecca, err := EvalBetween(g, e, g.MustNode("a6"), g.MustNode("a5"), eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(jayToRebecca) != 1 || jayToRebecca[0].Binding.Format(g) != "{z -> list(t10)}" {
		t.Errorf("a6→a5 shortest = %v results", len(jayToRebecca))
		for _, pb := range jayToRebecca {
			t.Logf("  %s %s", pb.Path.Format(g), pb.Binding.Format(g))
		}
	}
	mikeToMegan, err := EvalBetween(g, e, g.MustNode("a3"), g.MustNode("a1"), eval.Shortest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mikeToMegan) != 1 || mikeToMegan[0].Binding.Format(g) != "{z -> list(t7, t4)}" {
		t.Errorf("a3→a1 shortest: got %d results", len(mikeToMegan))
		for _, pb := range mikeToMegan {
			t.Logf("  %s %s", pb.Path.Format(g), pb.Binding.Format(g))
		}
	}
}

// TestIterationEqualsConcat is the semantic law ⟦R{2}⟧ = ⟦R·R⟧ that holds
// for ℓ-RPQs by design (Section 3.1.4) and fails for GQL group variables
// (Example 1).
func TestIterationEqualsConcat(t *testing.T) {
	g := gen.BankEdgeLabeled()
	twice := MustParse("(Transfer^z){2}")
	concat := MustParse("Transfer^z Transfer^z")
	a, err := Eval(g, twice, Options{MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(g, concat, Options{MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no results")
	}
	if len(a) != len(b) {
		t.Fatalf("R{2} gave %d results, R·R gave %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("result %d differs: %s vs %s", i, a[i].Key(), b[i].Key())
		}
	}
}

// TestBindingsOnPathBlowup is E18: the ℓ-RPQ (aa^z + a^z a)* yields exactly
// 2ⁿ distinct bindings on a single path of 2n a-edges.
func TestBindingsOnPathBlowup(t *testing.T) {
	e := MustParse("(a a^z | a^z a)*")
	for n := 1; n <= 7; n++ {
		g := gen.APath(2*n, "a")
		// The one matched path: v0 → v2n.
		pbs, err := EvalBetween(g, MustParse("(a a)*"), g.MustNode("v0"),
			g.MustNode(graph.NodeID("v"+itoa(2*n))), eval.Shortest, Options{})
		if err != nil || len(pbs) != 1 {
			t.Fatalf("n=%d: expected unique path, got %d (%v)", n, len(pbs), err)
		}
		bindings := BindingsOnPath(g, e, pbs[0].Path)
		if want := 1 << n; len(bindings) != want {
			t.Errorf("n=%d: bindings = %d, want %d", n, len(bindings), want)
		}
		for _, mu := range bindings {
			if got := len(mu.Get("z")); got != n {
				t.Errorf("n=%d: binding has %d edges in z, want %d", n, got, n)
			}
		}
	}
}

func TestBindingsOnPathRejects(t *testing.T) {
	g := gen.APath(3, "a")
	p, _ := gpath.New(g,
		graph.MakeNodeObject(g.MustNode("v0")),
		graph.MakeEdgeObject(g.MustEdge("e1")),
		graph.MakeNodeObject(g.MustNode("v1")))
	if got := BindingsOnPath(g, MustParse("(a a)*"), p); got != nil {
		t.Errorf("odd path should not match (aa)*: %v", got)
	}
	if got := BindingsOnPath(g, MustParse("b^z"), p); got != nil {
		t.Errorf("wrong label should not match: %v", got)
	}
}

func TestEvalBetweenModes(t *testing.T) {
	// u ⇄ v with a third node w: trails may use the 2-cycle, simple may not.
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).AddNode("w", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "u", nil).
		AddEdge("e3", "a", "u", "w", nil).
		MustBuild()
	u, w := g.MustNode("u"), g.MustNode("w")
	e := MustParse("(a^z)+")
	simple, err := EvalBetween(g, e, u, w, eval.Simple, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(simple) != 1 || simple[0].Binding.Format(g) != "{z -> list(e3)}" {
		t.Errorf("simple: %d results", len(simple))
	}
	trail, err := EvalBetween(g, e, u, w, eval.Trail, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != 2 {
		t.Errorf("trail: %d results, want 2", len(trail))
	}
	all, err := EvalBetween(g, e, u, w, eval.All, Options{MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 { // lengths 1, 3, 5
		t.Errorf("all ≤5: %d results, want 3", len(all))
	}
}

func TestEvalBetweenLimitOnly(t *testing.T) {
	g := gen.Cycle(3, "a")
	pbs, err := EvalBetween(g, MustParse("(a^z)*"), 0, 0, eval.All, Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pbs) != 3 {
		t.Fatalf("limit-only: %d results", len(pbs))
	}
	for i, want := range []int{0, 3, 6} {
		if pbs[i].Path.Len() != want {
			t.Errorf("result %d length = %d, want %d", i, pbs[i].Path.Len(), want)
		}
		if got := len(pbs[i].Binding.Get("z")); got != want {
			t.Errorf("result %d |z| = %d, want %d", i, got, want)
		}
	}
}

// TestLimitChargesRowsFound: under a limit the meter is charged every row a
// search finds, not only the rows the answer keeps, so a rows budget still
// bounds the search. Round the 3-cycle, mode all with MaxLen 9 finds 4 rows
// to keep 1; deepening to limit 3 finds 1, 1, 2 and 3 rows on its passes at
// bounds 1, 2, 4 and 8.
func TestLimitChargesRowsFound(t *testing.T) {
	g := gen.Cycle(3, "a")
	for _, c := range []struct {
		opts Options
		rows int64
	}{{Options{MaxLen: 9, Limit: 1}, 4}, {Options{Limit: 3}, 7}} {
		for _, budget := range []int64{c.rows - 1, c.rows} {
			opts := c.opts
			opts.Meter = pg.NewMeter(context.Background(), pg.Budget{MaxRows: budget}, nil, nil)
			_, err := EvalBetween(g, MustParse("a*"), 0, 0, eval.All, opts)
			if over := budget < c.rows; errors.Is(err, pg.ErrBudgetExceeded) != over {
				t.Errorf("MaxLen %d, limit %d, MaxRows %d: err = %v, want a budget error: %v",
					c.opts.MaxLen, c.opts.Limit, budget, err, over)
			}
		}
	}
}

// TestLimitOnlyFiniteAnswerEnds: mode all bounded by a limit alone ends
// when the answer has fewer results than the limit, although a cycle the
// length bound keeps cutting is reachable from the source: the a-loop on u,
// which never leads to w. The budget only turns a search that would not end
// into a failure.
func TestLimitOnlyFiniteAnswerEnds(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("w", "", nil).
		AddEdge("loop", "a", "u", "u", nil).
		AddEdge("uw", "b", "u", "w", nil).
		MustBuild()
	for _, c := range []struct {
		expr  string
		limit int
		want  []string
	}{
		{"a*", 1, nil},
		{"a* | b", 5, []string{"path(u, uw, w)"}},
	} {
		m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 20}, nil, nil)
		res, err := EvalBetween(g, MustParse(c.expr), g.MustNode("u"), g.MustNode("w"), eval.All,
			Options{Limit: c.limit, Meter: m})
		if err != nil {
			t.Errorf("%s, limit %d: %v", c.expr, c.limit, err)
			continue
		}
		var got []string
		for _, pb := range res {
			got = append(got, pb.Path.Format(g))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s, limit %d: %v, want %v", c.expr, c.limit, got, c.want)
		}
	}
}

// TestWalkReadings pins what a walk charges in modes all and trail on the
// 4-clique, from v0 to v1: one state per configuration carried to a path
// prefix, one row per (p, µ) found. Under the unambiguous (a^z)+ the
// configurations are the runs, and the readings are those of the per-run
// search the walk replaced. (a^z | _^z)+ has the same answer, but two runs
// reach each position of a path in the same state with the same assignment:
// they are one configuration, so the walk reads 79 and 10 501 states where
// the per-run search read 259 and 6 558 379.
func TestWalkReadings(t *testing.T) {
	g := gen.Clique(4, "a")
	for _, c := range []struct {
		expr         string
		mode         eval.Mode
		maxLen       int
		states, rows int64
	}{
		{"(a^z)+", eval.All, 3, 40, 10},
		{"(a^z)+", eval.Trail, 0, 5251, 1085},
		{"(a^z | _^z)+", eval.All, 3, 79, 10},
		{"(a^z | _^z)+", eval.Trail, 0, 10501, 1085},
	} {
		m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 40}, nil, nil)
		got, err := EvalBetween(g, MustParse(c.expr), 0, 1, c.mode, Options{MaxLen: c.maxLen, Meter: m})
		if err != nil {
			t.Fatal(err)
		}
		if m.States() != c.states || m.Rows() != c.rows {
			t.Errorf("%s %v: %d states, %d rows; want %d, %d", c.expr, c.mode, m.States(), m.Rows(), c.states, c.rows)
		}
		want, _ := EvalBetween(g, MustParse("(a^z)+"), 0, 1, c.mode, Options{MaxLen: c.maxLen})
		if !slices.EqualFunc(got, want, func(a, b gpath.PathBinding) bool { return a.Key() == b.Key() }) {
			t.Errorf("%s %v: the answer differs from (a^z)+'s", c.expr, c.mode)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	g := gen.Cycle(3, "a")
	if _, err := Eval(g, MustParse("a*"), Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("Eval unbounded: %v", err)
	}
	if _, err := EvalBetween(g, MustParse("a*"), 0, 0, eval.All, Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("EvalBetween unbounded: %v", err)
	}
}

func TestErasedAgreesWithEval(t *testing.T) {
	// Reachability of the erased automaton equals plain RPQ evaluation.
	g := gen.BankEdgeLabeled()
	e := MustParse("(Transfer^z)+")
	a := Compile(e).Erased()
	if !a.Accepts([]string{"Transfer", "Transfer"}) {
		t.Error("erased automaton must accept Transfer²")
	}
	if a.Accepts(nil) {
		t.Error("erased (Transfer)+ must reject ε")
	}
	_ = g
}

// TestErasedIsGlushkovOfErase: the automaton of the erased expression is
// the erased automaton, state for state and transition for transition, so
// a plan's annotated states index the product kernel that a serving layer
// keeps for Erase(e).
func TestErasedIsGlushkovOfErase(t *testing.T) {
	for _, text := range []string{
		"a*", "(Transfer^z)+", "(a a^z | a^z a)*", "(Transfer^z)* isBlocked",
		"(a|b)*", "(a|b)+", "a b* a", "!{b}* b", "a{2,4}", "(a|a)* b?", "(a^x | b^y)* a",
		"(a^z | a)* b^y", "_^z _", "(a* b*)*", "() | a", "'a b'^'0 z'", "!{a,b}^w{2,}",
	} {
		e := MustParse(text)
		want, got := Compile(e).Erased(), rpq.Compile(Erase(e))
		if got.NumStates != want.NumStates || got.Start != want.Start || !slices.Equal(got.Accept, want.Accept) {
			t.Fatalf("%s: %d states from %d accepting %v; erased: %d from %d accepting %v",
				text, got.NumStates, got.Start, got.Accept, want.NumStates, want.Start, want.Accept)
		}
		for q := range want.Trans {
			if !slices.EqualFunc(got.Trans[q], want.Trans[q], func(a, b automata.Transition) bool {
				return a.To == b.To && a.Guard.Negated == b.Guard.Negated && slices.Equal(a.Guard.Labels, b.Guard.Labels)
			}) {
				t.Fatalf("%s: state %d goes %v; erased: %v", text, q, got.Trans[q], want.Trans[q])
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
