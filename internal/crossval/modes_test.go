// The four path modes between two anchors — lrpq.Plan.Between and
// dlrpq.EvalBetween in modes all, shortest, simple and trail — against the
// definition: every walk along graph.Out whose label word the expression's
// automaton accepts, cut down by the mode, with each binding its accepting
// runs make (lrpq.BindingsOnPath). With a limit, the answer must be the head
// of the unlimited one, in result order (length, path key, binding key).
package crossval_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
)

// walkOracle is every walk from src to dst of at most maxLen edges along
// graph.Out whose label word nfa accepts and for which keep (nil: any)
// holds, in result order: length, then path key. A walk is given up once
// its word leaves the live states of nfa's DFA — no extension of it is
// accepted — which only saves time: what is kept is decided by
// automata.NFA.Accepts on the whole word.
func walkOracle(g *graph.Graph, nfa *automata.NFA, src, dst, maxLen int, keep func(gpath.Path) bool) []gpath.Path {
	dfa := nfa.Determinize()
	live := make([]bool, dfa.NumStates())
	for q := range live {
		live[q] = dfa.Accept[q]
	}
	for changed := true; changed; {
		changed = false
		for q, next := range dfa.Next {
			for _, to := range next {
				if live[to] && !live[q] {
					live[q], changed = true, true
				}
			}
		}
	}
	var out []gpath.Path
	objs := []graph.Object{graph.MakeNodeObject(src)}
	var word []string
	var walk func(node, q int)
	walk = func(node, q int) {
		if !live[q] {
			return
		}
		if node == dst && nfa.Accepts(word) {
			p, err := gpath.New(g, objs...)
			if err != nil {
				panic(err)
			}
			if keep == nil || keep(p) {
				out = append(out, p)
			}
		}
		if len(word) == maxLen {
			return
		}
		for _, ei := range g.Out(node) {
			e := g.Edge(ei)
			objs = append(objs, graph.MakeEdgeObject(ei), graph.MakeNodeObject(e.Tgt))
			word = append(word, e.Label)
			walk(e.Tgt, dfa.Step(q, e.Label))
			objs, word = objs[:len(objs)-2], word[:len(word)-1]
		}
	}
	walk(src, dfa.Start)
	sortPaths(out)
	return out
}

// sortPaths puts paths in result order: length, then path key.
func sortPaths(ps []gpath.Path) {
	for i := 1; i < len(ps); i++ { // insertion sort: the lists are short
		for j := i; j > 0 && pathLess(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func pathLess(a, b gpath.Path) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return a.Key() < b.Key()
}

// modeKeep is the mode's predicate on a walk (nil: every walk).
func modeKeep(mode eval.Mode) func(gpath.Path) bool {
	switch mode {
	case eval.Simple:
		return gpath.Path.IsSimple
	case eval.Trail:
		return gpath.Path.IsTrail
	}
	return nil
}

// modeExprs are the differential's expressions, as a plain RPQ and as the
// dl-RPQ with no data tests that matches the same node-to-node paths.
var modeExprs = []struct{ rpq, dl string }{
	{"a*", "() {[a] ()}*"},
	{"(a|b)+", "() {[a] () | [b] ()}+"},
	{"a b* a", "() [a] () {[b] ()}* [a] ()"},
	{"!{b}* b", "() {[!{b}] ()}* [b] ()"},
	{"a{2,4}", "() {[a] ()}{2,4}"},
}

// modeMaxLen bounds modes all, simple and trail in the differential; the
// oracle enumerates every walk up to it.
const modeMaxLen = 4

// modeListExprs are ℓ-RPQs that bind list variables, held to the walk
// oracle by lrpq alone: one variable, an ambiguous expression whose runs
// bind one path many ways, two variables, and an ambiguous one whose runs
// meet in one configuration. Each comes with its erasure as a plain RPQ,
// which the oracle's automaton is compiled from.
var modeListExprs = []struct{ l, rpq string }{
	{"(a^z)+", "a+"},
	{"(a a^z | a^z a)*", "(a a | a a)*"},
	{"(a^x | b^y)* a", "(a | b)* a"},
	{"(a^z | _^z)+", "(a | _)+"},
}

// formatWalks renders oracle walks the way formatPBs renders answers: each
// walk once per binding of e's accepting runs on it, in binding-key order.
func formatWalks(g *graph.Graph, e lrpq.Expr, ps []gpath.Path) []string {
	var out []string
	for _, p := range ps {
		mus := lrpq.BindingsOnPath(g, e, p)
		sort.Slice(mus, func(i, j int) bool { return mus[i].Key() < mus[j].Key() })
		for _, mu := range mus {
			out = append(out, p.Format(g)+" "+mu.Format(g))
		}
	}
	return out
}

// modeEvaluators are the anchored path evaluators under test: lrpq's plan
// on the ℓ-RPQ text, and dlrpq on dlText unless it is empty.
func modeEvaluators(g *graph.Graph, lText, dlText string) map[string]func(u, v int, mode eval.Mode, maxLen, limit int) ([]gpath.PathBinding, error) {
	plan := lrpqPlan(g, lrpq.MustParse(lText), nil)
	out := map[string]func(u, v int, mode eval.Mode, maxLen, limit int) ([]gpath.PathBinding, error){
		"lrpq": func(u, v int, mode eval.Mode, maxLen, limit int) ([]gpath.PathBinding, error) {
			return plan.Between(u, v, mode, lrpq.Options{MaxLen: maxLen, Limit: limit})
		},
	}
	if dlText != "" {
		dl := dlrpq.MustParse(dlText)
		out["dlrpq"] = func(u, v int, mode eval.Mode, maxLen, limit int) ([]gpath.PathBinding, error) {
			return dlrpq.EvalBetween(g, dl, u, v, mode, dlrpq.Options{MaxLen: maxLen, Limit: limit})
		}
	}
	return out
}

// checkModes compares the evaluators with the walk oracle on one pair, in
// every mode and at every limit. The oracle walks the rpq automaton of
// rpqText, lText's erasure, and takes each walk's bindings from lText.
func checkModes(t *testing.T, g *graph.Graph, rpqText, lText, dlText string, u, v int) {
	t.Helper()
	e := lrpq.MustParse(lText)
	nfa := rpq.Compile(rpq.MustParse(rpqText))
	for name, between := range modeEvaluators(g, lText, dlText) {
		for _, mode := range []eval.Mode{eval.All, eval.Shortest, eval.Simple, eval.Trail} {
			maxLen := modeMaxLen
			if mode == eval.Shortest {
				maxLen = 0 // the mode bounds itself
			}
			full, err := between(u, v, mode, maxLen, 0)
			if err != nil {
				t.Fatalf("%s %s %d→%d %v: %v", name, lText, u, v, mode, err)
			}
			var want []gpath.Path
			if mode == eval.Shortest {
				// The definition needs a bound: the claimed length. A
				// shorter accepted walk shows up under it and wins the cut;
				// a claim of no path at all is held to the oracle's bound.
				bound := modeMaxLen + 2
				if len(full) > 0 {
					bound = full[0].Path.Len()
				}
				walks := walkOracle(g, nfa, u, v, bound, nil)
				for _, p := range walks { // sorted by length first
					if p.Len() == walks[0].Len() {
						want = append(want, p)
					}
				}
			} else {
				want = walkOracle(g, nfa, u, v, maxLen, modeKeep(mode))
			}
			got, exp := formatPBs(g, full), formatWalks(g, e, want)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s %s %d→%d %v: answer differs from the definition\n got %v\nwant %v", name, lText, u, v, mode, got, exp)
			}
			for _, limit := range shortestLimits[1:] {
				cut, err := between(u, v, mode, maxLen, limit)
				if err != nil {
					t.Fatal(err)
				}
				if k := min(limit, len(exp)); fmt.Sprint(formatPBs(g, cut)) != fmt.Sprint(exp[:k]) {
					t.Fatalf("%s %s %d→%d %v limit %d: got %v, want the first %d of %v", name, lText, u, v, mode, limit, formatPBs(g, cut), k, exp)
				}
				// Mode all bounded by the limit alone: the head of the
				// unbounded answer, which the bounded one starts with once
				// it holds enough rows (with fewer, the unbounded answer
				// may be infinite).
				if mode == eval.All && len(exp) >= limit {
					cut, err := between(u, v, mode, 0, limit)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(formatPBs(g, cut)) != fmt.Sprint(exp[:limit]) {
						t.Fatalf("%s %s %d→%d all, limit %d alone: got %v, want %v", name, lText, u, v, limit, formatPBs(g, cut), exp[:limit])
					}
				}
			}
		}
	}
}

// TestModesMatchWalks is the generated differential: seeded random
// multigraphs with ≥ 120 edges, so edge indexes reach two and three digits
// and the decimal-string key order differs from the numeric one, every
// expression of the list, random pairs on every graph, and one family
// under a mutation overlay with tombstoned nodes and removed edges.
func TestModesMatchWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.Random(30, 120+10*int(seed), []string{"a", "b"}, seed)
		if seed == 4 {
			g = mutateForShortest(t, g)
		}
		for _, x := range modeExprs {
			for i := 0; i < 6; i++ {
				u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
				if !g.NodeAlive(u) || !g.NodeAlive(v) {
					continue
				}
				checkModes(t, g, x.rpq, x.rpq, x.dl, u, v)
			}
		}
	}
}

// TestModesBindListVariables is the binding differential: every (p, µ) of
// lrpq's four modes, at every limit, on the graphs of TestModesMatchWalks,
// for expressions that bind list variables.
func TestModesBindListVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.Random(30, 120+10*int(seed), []string{"a", "b"}, seed)
		if seed == 4 {
			g = mutateForShortest(t, g)
		}
		for _, x := range modeListExprs {
			for i := 0; i < 6; i++ {
				u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
				if !g.NodeAlive(u) || !g.NodeAlive(v) {
					continue
				}
				checkModes(t, g, x.rpq, x.l, "", u, v)
			}
		}
	}
}

// TestModesLimitIsAPrefix pins the two shapes where a limit once cut the
// answer in search order rather than result order: a simple path or trail
// found deeper first (n0→n1→n2 before the direct n0→n2), and mode all
// bounded by the limit alone over parallel edges whose keys order "E12."
// before "E2.".
func TestModesLimitIsAPrefix(t *testing.T) {
	b := graph.NewBuilder()
	for _, n := range []graph.NodeID{"n0", "n1", "n2"} {
		b.AddNode(n, "", nil)
	}
	b.AddEdge("e0", "a", "n0", "n1", nil).AddEdge("e1", "a", "n1", "n2", nil).AddEdge("e2", "a", "n0", "n2", nil)
	triangle := b.MustBuild()

	b = graph.NewBuilder()
	for _, n := range []graph.NodeID{"s", "t", "x", "y"} {
		b.AddNode(n, "", nil)
	}
	for i := 0; i <= 12; i++ {
		src, tgt := graph.NodeID("x"), graph.NodeID("y")
		if i == 2 || i == 12 {
			src, tgt = "s", "t"
		}
		b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", i)), "a", src, tgt, nil)
	}
	parallel := b.MustBuild()

	for _, c := range []struct {
		g        *graph.Graph
		from, to string
		mode     eval.Mode
		maxLen   int
		want     string
	}{
		{triangle, "n0", "n2", eval.Simple, 0, "path(n0, e2, n2)"},
		{triangle, "n0", "n2", eval.Trail, 0, "path(n0, e2, n2)"},
		{parallel, "s", "t", eval.All, 0, "path(s, e12, t)"},
	} {
		u, v := c.g.MustNode(graph.NodeID(c.from)), c.g.MustNode(graph.NodeID(c.to))
		for name, between := range modeEvaluators(c.g, "a+", "() {[a] ()}+") {
			got, err := between(u, v, c.mode, c.maxLen, 1)
			if err != nil || len(got) != 1 || got[0].Path.Format(c.g) != c.want {
				t.Errorf("%s %s→%s %v limit 1: %v (err %v), want %s", name, c.from, c.to, c.mode, formatPBs(c.g, got), err, c.want)
			}
		}
		checkModes(t, c.g, "a+", "a+", "() {[a] ()}+", u, v)
	}
}
