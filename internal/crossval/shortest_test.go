// Shortest paths between two anchors: the meet-in-the-middle search of
// pg.Kernel.Between and the DAG walk of lrpq.Plan.Shortest against two
// oracles that share no code with them — the walk oracle of modes_test.go
// (every walk whose label word the automaton accepts, cut to minimal
// length), each walk with the bindings its runs make (lrpq.BindingsOnPath)
// for expressions with list variables; a claim of no path at all is held to
// a single-source kernel sweep. Rows and order must both agree, at every
// limit.
package crossval_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
)

// shortestExprs are the differential's queries; the second half binds list
// variables, so several bindings can share one path.
var shortestExprs = []string{
	"a*", "(a|b)*", "a b* a", "!{b}* b", "a{2,4}", "(a|a)* b?",
	"(a^z)+", "(a a^z | a^z a)*", "(a^x | b^y)* a", "(a^z | a)* b^y",
}

// shortestLimits: 0 is "all of them".
var shortestLimits = []int{0, 1, 2, 5}

func formatPBs(g *graph.Graph, pbs []gpath.PathBinding) []string {
	out := make([]string, len(pbs))
	for i, pb := range pbs {
		out[i] = pb.Path.Format(g) + " " + pb.Binding.Format(g)
	}
	return out
}

// reach is every node a sweep of kern from u reaches in an accepting state.
func reach(kern *pg.Kernel, u int) []int {
	vs, _ := kern.Sweep(u, kern.NewScratch(), nil, false) // nil meter: cannot fail
	return vs
}

// checkShortest compares the served evaluator with both oracles on one
// (graph, expression, pair), at every limit.
func checkShortest(t *testing.T, g *graph.Graph, text string, u, v int) {
	t.Helper()
	e := lrpq.MustParse(text)
	plan := lrpqPlan(g, e, nil)
	full, err := plan.Between(u, v, eval.Shortest, lrpq.Options{})
	if err != nil {
		t.Fatalf("%s %d→%d: %v", text, u, v, err)
	}
	// The walk oracle needs a bound: the claimed length. A shorter accepted
	// walk shows up under it and wins the cut; a claim of no path at all is
	// checked by a kernel sweep from the source.
	nfa := rpq.Compile(lrpq.Erase(e))
	var erased []gpath.Path
	if len(full) > 0 {
		walks := walkOracle(g, nfa, u, v, full[0].Path.Len(), nil)
		for _, p := range walks { // sorted by length first
			if p.Len() == walks[0].Len() {
				erased = append(erased, p)
			}
		}
	} else if kern := eval.NewProduct(g, nfa).Kernel(); slices.Contains(reach(kern, u), v) {
		t.Fatalf("%s %d→%d: no shortest path, but a sweep from %d reaches %d", text, u, v, u, v)
	}
	got, exp := formatPBs(g, full), formatWalks(g, e, erased)
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("%s %d→%d: shortest differs from the oracle\n got %v\nwant %v", text, u, v, got, exp)
	}
	for _, limit := range shortestLimits[1:] {
		cut, err := plan.Between(u, v, eval.Shortest, lrpq.Options{Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		k := min(limit, len(exp))
		if fmt.Sprint(formatPBs(g, cut)) != fmt.Sprint(exp[:k]) {
			t.Fatalf("%s %d→%d limit %d: got %v, want the first %d of %v", text, u, v, limit, formatPBs(g, cut), k, exp)
		}
	}
	// The shortest PMR is built from the same DAG: it must hold exactly the
	// distinct paths of the answer (it counts runs, so the comparison needs
	// an automaton with one run per path).
	if len(lrpq.Vars(e)) == 0 && nfa.IsUnambiguous() {
		kern := eval.NewProduct(g, nfa).Kernel()
		r, err := pmr.ShortestFromKernel(kern, u, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n, inf := r.Cardinality(); inf || n.Int64() != int64(len(full)) {
			t.Fatalf("%s %d→%d: shortest PMR holds %v paths (infinite %v), lrpq returned %d", text, u, v, n, inf, len(full))
		}
	}
}

// TestShortestMatchesOracles is the generated differential: seeded random
// multigraphs with ≥ 120 edges, so edge indexes reach two and three digits
// and the decimal-string key order differs from the numeric one, two and
// three labels, every expression of the list, random pairs on every graph
// and all pairs on one, and one family under a mutation overlay with
// tombstoned nodes and removed edges.
func TestShortestMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for seed := int64(1); seed <= 8; seed++ {
		labels := []string{"a", "b"}
		if seed%2 == 0 {
			labels = append(labels, "c")
		}
		n := 24 + int(seed)*3
		g := gen.Random(n, 120+10*int(seed), labels, seed)
		if seed%4 == 0 {
			g = mutateForShortest(t, g)
		}
		for _, text := range shortestExprs {
			for i := 0; i < 24; i++ {
				u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
				if !g.NodeAlive(u) || !g.NodeAlive(v) {
					continue
				}
				checkShortest(t, g, text, u, v)
			}
		}
	}
	small := gen.Random(12, 120, []string{"a", "b"}, 99)
	for _, text := range shortestExprs {
		for u := 0; u < small.NumNodes(); u++ {
			for v := 0; v < small.NumNodes(); v++ {
				checkShortest(t, small, text, u, v)
			}
		}
	}
}

// mutateForShortest layers an overlay over g: two tombstoned nodes, a run
// of removed edges, and a new node wired in with new edges (whose indexes
// sort after every base edge numerically but not as strings).
func mutateForShortest(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	muts := []graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "v3"},
		{Op: graph.MutRemoveNode, ID: "v11"},
		{Op: graph.MutAddNode, ID: "w0"},
		{Op: graph.MutAddEdge, ID: "f0", Label: "a", Src: "w0", Tgt: "v1"},
		{Op: graph.MutAddEdge, ID: "f1", Label: "a", Src: "v2", Tgt: "w0"},
		{Op: graph.MutAddEdge, ID: "f2", Label: "b", Src: "v4", Tgt: "w0"},
	}
	for i := 20; i < 40; i += 3 {
		id := graph.EdgeID(fmt.Sprintf("e%d", i))
		if ei, ok := g.EdgeIndex(id); ok && g.Edge(ei).Src != 3 && g.Edge(ei).Src != 11 && g.Edge(ei).Tgt != 3 && g.Edge(ei).Tgt != 11 {
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: string(id)})
		}
	}
	over, err := g.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	return over
}

// TestShortestNamedCases pins the shapes a meet-in-the-middle search can
// get wrong, each against both oracles and with its expected answer count.
func TestShortestNamedCases(t *testing.T) {
	build := func(edges ...[3]string) *graph.Graph {
		b := graph.NewBuilder()
		seen := map[string]bool{}
		for i, e := range edges {
			for _, n := range []string{e[0], e[2]} {
				if !seen[n] {
					seen[n] = true
					b.AddNode(graph.NodeID(n), "", nil)
				}
			}
			b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", i)), e[1], graph.NodeID(e[0]), graph.NodeID(e[2]), nil)
		}
		return b.MustBuild()
	}
	// A hub target: 200 nodes point at it, the source reaches it through a
	// three-edge chain. The backward frontier is 200 wide after one level;
	// the forward side has to carry the rest.
	hubEdges := [][3]string{{"s", "a", "p1"}, {"p1", "a", "p2"}, {"p2", "a", "hub"}}
	for i := 0; i < 200; i++ {
		hubEdges = append(hubEdges, [3]string{fmt.Sprintf("x%d", i), "a", "hub"})
	}
	cases := []struct {
		name     string
		g        *graph.Graph
		expr     string
		from, to string
		want     int
	}{
		{"src==dst, nullable: the empty path", build([3]string{"u", "a", "v"}, [3]string{"v", "a", "u"}), "a*", "u", "u", 1},
		{"src==dst, not nullable: a cycle", build([3]string{"u", "a", "v"}, [3]string{"v", "a", "u"}), "a+", "u", "u", 1},
		{"src==dst, no cycle back", build([3]string{"u", "a", "v"}), "a+", "u", "u", 0},
		{"unreachable target", build([3]string{"u", "a", "v"}, [3]string{"w", "a", "v"}), "a*", "u", "w", 0},
		{"no accepting state at all", build([3]string{"u", "a", "v"}), "a c", "u", "v", 0},
		// v is one edge away, but only in a state that does not accept; the
		// accepted path has to go round through w.
		{"target first reached in a non-accepting state",
			build([3]string{"u", "a", "v"}, [3]string{"v", "b", "w"}, [3]string{"w", "c", "v"}), "a b c", "u", "v", 1},
		// Two accepting states at the target, reached at depths 1 and 2.
		{"accepting states at different depths",
			build([3]string{"u", "a", "v"}, [3]string{"u", "b", "w"}, [3]string{"w", "b", "v"}), "a | b b", "u", "v", 1},
		{"parallel edges", build([3]string{"u", "a", "v"}, [3]string{"u", "a", "v"}, [3]string{"u", "a", "v"}, [3]string{"v", "a", "w"}, [3]string{"v", "a", "w"}), "a*", "u", "w", 6},
		{"parallel edges, one binding each", build([3]string{"u", "a", "v"}, [3]string{"u", "a", "v"}, [3]string{"v", "a", "w"}), "(a^z)*", "u", "w", 2},
		{"two bindings on one path", build([3]string{"u", "a", "v"}, [3]string{"v", "a", "w"}), "(a a^z | a^z a)*", "u", "w", 2},
		{"hub target", build(hubEdges...), "a*", "s", "hub", 1},
		{"hub source", build(append([][3]string{{"hub", "a", "s"}}, hubEdges...)...), "a* b?", "x7", "s", 1},
	}
	for _, c := range cases {
		u, v := c.g.MustNode(graph.NodeID(c.from)), c.g.MustNode(graph.NodeID(c.to))
		pbs, err := lrpq.EvalBetween(c.g, lrpq.MustParse(c.expr), u, v, eval.Shortest, lrpq.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(pbs) != c.want {
			t.Errorf("%s: %d answers, want %d: %v", c.name, len(pbs), c.want, formatPBs(c.g, pbs))
		}
		checkShortest(t, c.g, c.expr, u, v)
	}
}

// TestShortestLimitOnFigure5: 2ⁿ shortest s→t paths behind a Θ(n) DAG.
// With a limit the answer is the head of the unlimited one, and its cost
// does not depend on how many paths there are: at n = 40 — a million
// million paths, which the full enumeration never finishes — three of them
// come out inside a budget of a few thousand states.
func TestShortestLimitOnFigure5(t *testing.T) {
	e := lrpq.MustParse("(a^z)*")
	g := gen.Figure5(12)
	s, d := g.MustNode("s"), g.MustNode("t")
	all, err := lrpq.EvalBetween(g, e, s, d, eval.Shortest, lrpq.Options{})
	if err != nil || len(all) != 4096 {
		t.Fatalf("figure5-12: %d paths, err %v; want 4096", len(all), err)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Path.Key() >= all[i].Path.Key() {
			t.Fatalf("figure5-12: answers %d and %d out of key order", i-1, i)
		}
	}
	head, err := lrpq.EvalBetween(g, e, s, d, eval.Shortest, lrpq.Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(formatPBs(g, head)) != fmt.Sprint(formatPBs(g, all[:3])) {
		t.Fatalf("figure5-12 limit 3: got %v, want %v", formatPBs(g, head), formatPBs(g, all[:3]))
	}

	g = gen.Figure5(40)
	s, d = g.MustNode("s"), g.MustNode("t")
	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 4000}, nil, nil)
	head, err = lrpq.EvalBetween(g, e, s, d, eval.Shortest, lrpq.Options{Limit: 3, Meter: m})
	if err != nil {
		t.Fatalf("figure5-40 limit 3 under a 4000-state budget: %v", err)
	}
	if len(head) != 3 {
		t.Fatalf("figure5-40 limit 3: %d answers", len(head))
	}
	for i, pb := range head {
		if pb.Path.Len() != 40 {
			t.Errorf("answer %d has %d edges, want 40", i, pb.Path.Len())
		}
		if i > 0 && head[i-1].Path.Key() >= pb.Path.Key() {
			t.Errorf("answers %d and %d out of key order", i-1, i)
		}
	}
	t.Logf("figure5-40 limit 3: %d states", m.States())
}

// TestShortestPMRUnchanged: the shortest PMR built from the search's DAG is
// the representation the full-product construction used to build — on the
// README's example, node for node and edge for edge.
func TestShortestPMRUnchanged(t *testing.T) {
	g := gen.Figure5(3)
	r, err := pmr.ShortestFromKernel(eval.CompileProduct(g, rpq.MustParse("a*")).Kernel(), g.MustNode("s"), g.MustNode("t"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 4 || len(r.Edges) != 6 || len(r.S) != 1 || len(r.T) != 1 {
		t.Fatalf("figure5-3 shortest PMR: %d nodes, %d edges, S %v, T %v", r.NumNodes(), len(r.Edges), r.S, r.T)
	}
	paths, err := r.Enumerate(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		got = append(got, p.Format(g))
	}
	want := []string{
		"path(s, e1_0, u1, e2_0, u2, e3_0, t)", "path(s, e1_0, u1, e2_0, u2, e3_1, t)",
		"path(s, e1_0, u1, e2_1, u2, e3_0, t)", "path(s, e1_0, u1, e2_1, u2, e3_1, t)",
		"path(s, e1_1, u1, e2_0, u2, e3_0, t)", "path(s, e1_1, u1, e2_0, u2, e3_1, t)",
		"path(s, e1_1, u1, e2_1, u2, e3_0, t)", "path(s, e1_1, u1, e2_1, u2, e3_1, t)",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("figure5-3 shortest PMR enumerates\n%v\nwant\n%v", got, want)
	}
}

// TestShortestSearchIsMetered: the search itself honours the meter, on both
// of its sides. Corner to corner on a 40×40 grid each side's ball holds
// ~800 product states when they meet. A states budget below that trips
// from inside the search — not after it, in the walk — within one check
// interval of the limit; a cancelled context stops it within the first
// interval; and unbudgeted, every state the meter was charged reached the
// kernel's counters too, with both sides having expanded levels.
func TestShortestSearchIsMetered(t *testing.T) {
	g := gen.Grid(40, 40, "a")
	u, v := g.MustNode("g0_0"), g.MustNode("g39_39")
	var counters pg.Counters
	plan := lrpqPlan(g, lrpq.MustParse("a*"), &counters)

	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 40}, nil, nil)
	meet, err := plan.Search(u, v, m)
	if err != nil || meet.Len != 78 || meet.Fwd == 0 || meet.Bwd == 0 {
		t.Fatalf("search: %+v, err %v; want length 78 with both sides expanded", meet, err)
	}
	full := m.States()
	if got := counters.Snapshot().StatesExpanded; got != full || full < 4*pg.CheckInterval {
		t.Fatalf("meter charged %d states, counters %d; want them equal and several check intervals", full, got)
	}

	const budget = 300
	m = pg.NewMeter(context.Background(), pg.Budget{MaxStates: budget}, nil, nil)
	meet, err = plan.Search(u, v, m)
	var be *pg.BudgetError
	if meet != nil || !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("search under a %d-state budget: result %v, err %v; want a states budget error", budget, meet != nil, err)
	}
	if got := m.States(); got <= budget || got > budget+pg.CheckInterval {
		t.Errorf("budget %d tripped at %d states; want within one check interval past it", budget, got)
	}
	r, err := pmr.ShortestFromKernel(eval.CompileProduct(g, rpq.MustParse("a*")).Kernel(), u, v, pg.NewMeter(context.Background(), pg.Budget{MaxStates: budget}, nil, nil))
	if r != nil || !errors.Is(err, pg.ErrBudgetExceeded) {
		t.Errorf("shortest PMR under the same budget: result %v, err %v", r != nil, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m = pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	meet, err = plan.Search(u, v, m)
	if meet != nil || !errors.Is(err, pg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("search under a cancelled context: result %v, err %v", meet != nil, err)
	}
	if got := m.States(); got > pg.CheckInterval {
		t.Errorf("cancelled search expanded %d states; the check interval is %d", got, pg.CheckInterval)
	}
}

// TestShortestConcurrentOnOnePlan: a cached plan serves concurrent queries.
// Eight goroutines search one fresh plan at once — racing to build its
// reverse table and sharing its pool of search tables — and each must get
// what a sequential run gets. Run under -race this is the data-race check
// for the state Between keeps on the kernel.
func TestShortestConcurrentOnOnePlan(t *testing.T) {
	g := gen.Random(40, 200, []string{"a", "b"}, 5)
	e := lrpq.MustParse("(a^z | b)* a")
	n := g.NumNodes()
	want := make([]string, n)
	seq := lrpqPlan(g, e, nil)
	for v := range want {
		pbs, err := seq.Between(0, v, eval.Shortest, lrpq.Options{Limit: 4})
		if err != nil {
			t.Fatal(err)
		}
		want[v] = fmt.Sprint(formatPBs(g, pbs))
	}
	plan := lrpqPlan(g, e, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				v := (i + w*5) % n
				pbs, err := plan.Between(0, v, eval.Shortest, lrpq.Options{Limit: 4})
				if err != nil {
					t.Errorf("worker %d, target %d: %v", w, v, err)
					return
				}
				if got := fmt.Sprint(formatPBs(g, pbs)); got != want[v] {
					t.Errorf("worker %d, target %d: got %s, want %s", w, v, got, want[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
