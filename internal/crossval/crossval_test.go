// Package crossval_test cross-validates the independent evaluators against
// each other: the same query expressed in two formalisms must agree. These
// are the "languages meet in the middle" checks for Figure 1 of the paper.
package crossval_test

import (
	"fmt"
	"math/rand"
	"testing"

	"graphquery/internal/coregql"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// products hands out a fresh product with g per expression: what the
// engine's kernel cache hands a relalg query, without the cache.
func products(g *graph.Graph) func(rpq.Expr) *eval.Product {
	return func(e rpq.Expr) *eval.Product { return eval.CompileProduct(g, e) }
}

// kernels is products' forward kernels: what a CRPQ plan's atoms sweep.
func kernels(g *graph.Graph) func(rpq.Expr) *pg.Kernel {
	return func(e rpq.Expr) *pg.Kernel { return eval.CompileProduct(g, e).Kernel() }
}

// lrpqPlan is lrpq.NewPlan on a fresh product kernel of the erased
// expression, instrumented with c (may be nil).
func lrpqPlan(g *graph.Graph, e lrpq.Expr, c *pg.Counters) *lrpq.Plan {
	return lrpq.NewPlan(eval.NewProductInstrumented(g, rpq.Compile(lrpq.Erase(e)), c).Kernel(), e)
}

// TestDlRPQAgreesWithLRPQ: a dl-RPQ using only label atoms (no tests)
// denotes the same node-to-node paths as the corresponding ℓ-RPQ.
func TestDlRPQAgreesWithLRPQ(t *testing.T) {
	type pair struct {
		dl string
		l  string
	}
	cases := []pair{
		{"() {[a]()}*", "a*"},
		{"() [a] () [b] ()", "a b"},
		{"() {[a]() | [b]()}+", "(a | b)+"},
		{"() {[a^z]()}{2}", "(a^z){2}"},
	}
	for trial := 0; trial < 8; trial++ {
		g := gen.Random(4, 7, []string{"a", "b"}, int64(trial)*19+2)
		for _, tc := range cases {
			de := dlrpq.MustParse(tc.dl)
			le := lrpq.MustParse(tc.l)
			for u := 0; u < g.NumNodes(); u++ {
				for v := 0; v < g.NumNodes(); v++ {
					dres, err := dlrpq.EvalBetween(g, de, u, v, eval.All, dlrpq.Options{MaxLen: 3})
					if err != nil {
						t.Fatal(err)
					}
					lres, err := lrpq.EvalBetween(g, le, u, v, eval.All, lrpq.Options{MaxLen: 3})
					if err != nil {
						t.Fatal(err)
					}
					dk := map[string]bool{}
					for _, pb := range dres {
						dk[pb.Key()] = true
					}
					lk := map[string]bool{}
					for _, pb := range lres {
						lk[pb.Key()] = true
					}
					if len(dk) != len(lk) {
						t.Fatalf("trial %d %q vs %q at (%d,%d): %d vs %d results",
							trial, tc.dl, tc.l, u, v, len(dk), len(lk))
					}
					for k := range dk {
						if !lk[k] {
							t.Fatalf("trial %d: dl result %s missing from ℓ-RPQ", trial, k)
						}
					}
				}
			}
		}
	}
}

// TestCoreGQLAgreesWithEval: the CoreGQL pattern (x)(()-->())*(y) produces
// exactly the bounded walk set of the RPQ _*, by definition (walkOracle).
func TestCoreGQLAgreesWithEval(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := gen.Random(4, 6, []string{"a", "b"}, int64(trial)*31+5)
		pat := coregql.Concat(coregql.Node("x"),
			coregql.Star(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())),
			coregql.Node("y"))
		ms, err := coregql.EvalPattern(g, pat, coregql.Options{MaxLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		gotKeys := map[string]bool{}
		for _, m := range ms {
			gotKeys[m.Path.Key()] = true
		}
		wantKeys := map[string]bool{}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				for _, p := range walkOracle(g, rpq.Compile(rpq.MustParse("_*")), u, v, 3, nil) {
					wantKeys[p.Key()] = true
				}
			}
		}
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("trial %d: coregql %d paths, walks %d", trial, len(gotKeys), len(wantKeys))
		}
		for k := range wantKeys {
			if !gotKeys[k] {
				t.Fatalf("trial %d: walk missing from coregql", trial)
			}
		}
	}
}

// TestGQLAgreesWithCoreGQLWithoutVariables: with no variables in play, the
// GQL model and CoreGQL have identical path sets (the divergence is all
// about variables under iteration).
func TestGQLAgreesWithCoreGQLWithoutVariables(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := gen.Random(4, 6, []string{"a", "b"}, int64(trial)*47+9)
		gqlPat := gql.Concat(gql.Node("x"),
			gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode())),
			gql.Node("y"))
		corePat := coregql.Concat(coregql.Node("x"),
			coregql.Star(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())),
			coregql.Node("y"))
		// CoreGQL has no edge-label atoms; restrict the graph to a-edges
		// for the comparison instead.
		ga := onlyLabel(g, "a")
		gqlPaths, err := gql.MatchPaths(ga, gqlPat, gql.Options{MaxLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		coreMs, err := coregql.EvalPattern(ga, corePat, coregql.Options{MaxLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		coreKeys := map[string]bool{}
		for _, m := range coreMs {
			coreKeys[m.Path.Key()] = true
		}
		if len(gqlPaths) != len(coreKeys) {
			t.Fatalf("trial %d: gql %d vs coregql %d", trial, len(gqlPaths), len(coreKeys))
		}
		for _, p := range gqlPaths {
			if !coreKeys[p.Key()] {
				t.Fatalf("trial %d: gql path missing from coregql", trial)
			}
		}
	}
}

// TestLRPQIterationLawRandomized: ⟦R{2}⟧ = ⟦R·R⟧ on random graphs and
// random variable-annotated expressions (the automata-compatibility law).
func TestLRPQIterationLawRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	units := []string{"a^z", "a^z b", "(a^z | b^w)", "a b^z"}
	for trial := 0; trial < 12; trial++ {
		g := gen.Random(4, 8, []string{"a", "b"}, int64(trial)*13+1)
		u := units[rng.Intn(len(units))]
		twice := lrpq.MustParse(fmt.Sprintf("(%s){2}", u))
		concat := lrpq.MustParse(fmt.Sprintf("(%s) (%s)", u, u))
		a, err := lrpq.Eval(g, twice, lrpq.Options{MaxLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		b, err := lrpq.Eval(g, concat, lrpq.Options{MaxLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d (%s): %d vs %d results", trial, u, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Fatalf("trial %d (%s): result %d differs", trial, u, i)
			}
		}
	}
}

// onlyLabel returns a copy of g keeping only edges with the given label.
func onlyLabel(g *graph.Graph, label string) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(i)
		b.AddNode(n.ID, n.Label, n.Props)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		if e.Label == label {
			b.AddEdge(e.ID, e.Label, g.Node(e.Src).ID, g.Node(e.Tgt).ID, e.Props)
		}
	}
	return b.MustBuild()
}
