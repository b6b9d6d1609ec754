package graphquery

// Benchmark harness: one testing.B benchmark per quantitative experiment of
// EXPERIMENTS.md (the paper has no performance tables of its own — these
// benchmarks quantify the asymptotic claims its discussion makes: the
// bag-semantics explosion of §6.1, the exponential outputs of §6.3, the
// NP-hard path modes, the compactness of PMRs, the cost of the EXCEPT
// workaround of §5.2, and the efficiency of product-construction
// evaluation).

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"graphquery/internal/bag"
	"graphquery/internal/cardest"
	"graphquery/internal/coregql"
	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/pmr"
	"graphquery/internal/regular"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
	"graphquery/internal/twoway"
)

// BenchmarkE09_Except measures the §5.2 complement workaround (match all
// paths, match the violating pattern, subtract) for the increasing-edge-
// values query.
func BenchmarkE09_Except(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := dateChain(n)
			walk := gqlWalk()
			bad := gqlBadPair()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				all, err := gql.MatchPaths(g, walk, gql.Options{MaxLen: n})
				if err != nil {
					b.Fatal(err)
				}
				viol, err := gql.MatchPaths(g, bad, gql.Options{MaxLen: n})
				if err != nil {
					b.Fatal(err)
				}
				if got := gql.Except(all, viol); len(got) == 0 {
					b.Fatal("expected surviving paths")
				}
			}
		})
	}
}

// BenchmarkE09_DlRPQ measures the direct symmetric dl-RPQ formulation of
// the same query (Example 21), between fixed endpoints.
func BenchmarkE09_DlRPQ(b *testing.B) {
	expr := dlrpq.MustParse("() [_^z][x := k] { () [_^z][k > x][x := k] }* ()")
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := dateChain(n)
			src, dst := 0, g.NumNodes()-1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dlrpq.EvalBetween(g, expr, src, dst, eval.All,
					dlrpq.Options{MaxLen: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10_SubsetSum demonstrates the NP-hardness of the §5.2 reduce
// query: time grows exponentially with the number of weights.
func BenchmarkE10_SubsetSum(b *testing.B) {
	for _, n := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			weights := make([]int64, n)
			for i := range weights {
				weights[i] = int64(3*i + 1)
			}
			var target int64
			for i := 0; i < n; i += 2 {
				target += weights[i]
			}
			g := gen.SubsetSumChain(weights)
			walk := gqlWalk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				paths, err := gql.MatchPaths(g, walk, gql.Options{MaxLen: n})
				if err != nil {
					b.Fatal(err)
				}
				hit := false
				for _, p := range paths {
					if p.Len() != n {
						continue
					}
					if v, _ := gql.SumProp(g, "k", gql.EdgesOf(p)).AsInt(); v == target {
						hit = true
					}
				}
				if !hit {
					b.Fatal("planted subset not found")
				}
			}
		})
	}
}

// BenchmarkE12_AllDistinct measures the ⟨∀(u)→⁺(v) ⇒ u.k≠v.k⟩ matched-path
// condition — quadratically many segment checks per path.
func BenchmarkE12_AllDistinct(b *testing.B) {
	inner := gql.Concat(gql.Node("u"),
		gql.Repeat(gql.Concat(gql.AnonNode(), gql.AnonEdge(), gql.AnonNode()), 1, -1),
		gql.Node("v"))
	theta := coregql.Cmp("u", "k", graph.OpNe, "v", "k")
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dates := make([]int64, n+1)
			for i := range dates {
				dates[i] = int64(i)
			}
			g := gen.DateNodePath("a", dates)
			paths, err := gql.MatchPaths(g, gqlWalk(), gql.Options{MaxLen: n})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gql.FilterForAll(g, paths, inner, theta, gql.Options{MaxLen: n}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15_BagCount measures the §6.1 explosion: exact bag-semantics
// answer counting for (((a*)*)*)* on k-cliques, vs set semantics.
func BenchmarkE15_BagCount(b *testing.B) {
	nested := rpq.MustParse("(((a*)*)*)*")
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("bag/k=%d", k), func(b *testing.B) {
			g := gen.Clique(k, "a")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bag.TotalCount(g, nested).Sign() <= 0 {
					b.Fatal("count should be positive")
				}
			}
		})
	}
	b.Run("set/k=5", func(b *testing.B) {
		g := gen.Clique(5, "a")
		simplified := rpq.Simplify(nested)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(eval.Pairs(g, simplified)) != 25 {
				b.Fatal("set count should be 25")
			}
		}
	})
}

// BenchmarkE16_ProductEval measures all-pairs RPQ evaluation via the
// product construction on random graphs of growing size.
func BenchmarkE16_ProductEval(b *testing.B) {
	expr := rpq.MustParse("a (a | b)* b")
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.Random(n, 4*n, []string{"a", "b"}, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.Pairs(g, expr)
			}
		})
	}
}

// BenchmarkE16_UnifiedTiers measures each upper language tier on one shared
// workload per tier — the comparison rows of EXPERIMENTS.md. A tier with a
// kernel entry point runs it under the meter a served query would hand it
// (here: no budget, a context that is never canceled); the GQL family has
// one evaluator each, its match enumerator, and the Cypher fragment runs as
// the RPQ it compiles to.
func BenchmarkE16_UnifiedTiers(b *testing.B) {
	m := pg.NewMeter(context.Background(), pg.Budget{}, nil, nil)
	g := gen.Random(200, 800, []string{"a", "b"}, 42)
	cyp := cypherfrag.Concat(cypherfrag.Edge("a"), cypherfrag.StarOf("a", "b"))
	b.Run("cypher/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.Pairs(g, cypherfrag.Compile(cyp))
		}
	})
	gqlPat := gql.Concat(gql.Node("x"),
		gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode())),
		gql.Node("y"))
	b.Run("gql/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gql.EvalPattern(g, gqlPat, gql.Options{MaxLen: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	corePat := coregql.Concat(coregql.Node("x"),
		coregql.Star(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())),
		coregql.Node("y"))
	b.Run("coregql/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := coregql.EvalPattern(g, corePat, coregql.Options{MaxLen: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	pmrKernel := eval.CompileProduct(g, rpq.MustParse("a (a | b)*")).Kernel()
	b.Run("pmr/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := pmr.FromKernel(pmrKernel, 0, 1, m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Enumerate(100, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc := strings.Repeat("ab", 40)
	spanExpr := spanner.Seq(
		spanner.Cap("x", spanner.Star(spanner.Lit("ab"))),
		spanner.Cap("y", spanner.Star(spanner.Lit("ab"))))
	b.Run("spanner/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spanner.EvaluateMeter(doc, spanExpr, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spanner/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spanner.Evaluate(doc, spanExpr)
		}
	})
	// relalg REACH atoms are new with the unification; the kernel side is
	// the only side.
	b.Run("relalg/kernel", func(b *testing.B) {
		q := relalg.MustParseQuery("REACH(a*) AS (x, y) JOIN REACH(b) AS (y, z)")
		for i := 0; i < b.N; i++ {
			if _, err := relalg.EvalQuery(q, eval.Options{Meter: m}, func(e rpq.Expr) *eval.Product { return eval.CompileProduct(g, e) }); err != nil {
				b.Fatal(err)
			}
		}
	})
	gc := gen.Clique(6, "a")
	bagExpr := rpq.MustParse("a*")
	b.Run("bag/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bag.TotalCountMeter(gc, bagExpr, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bag/reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bag.TotalCount(gc, bagExpr)
		}
	})
}

// BenchmarkE17_PMRvsEnum contrasts building the Θ(n)-size PMR for the 2ⁿ
// Figure-5 paths with enumerating them.
func BenchmarkE17_PMRvsEnum(b *testing.B) {
	expr := rpq.MustParse("a*")
	for _, n := range []int{10, 14} {
		g := gen.Figure5(n)
		s, t := g.MustNode("s"), g.MustNode("t")
		b.Run(fmt.Sprintf("pmr/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := pmr.ShortestFromKernel(eval.CompileProduct(g, expr).Kernel(), s, t, nil)
				if err != nil {
					b.Fatal(err)
				}
				if c, _ := r.Cardinality(); c.Int64() != 1<<uint(n) {
					b.Fatal("wrong cardinality")
				}
			}
		})
		b.Run(fmt.Sprintf("enumerate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				paths, err := lrpq.EvalBetween(g, lrpq.MustParse("a*"), s, t, eval.Shortest, lrpq.Options{})
				if err != nil || len(paths) != 1<<uint(n) {
					b.Fatalf("enumerated %d (err %v)", len(paths), err)
				}
			}
		})
	}
}

// BenchmarkE19_Modes contrasts polynomial shortest-path existence with the
// NP-hard simple-path existence on an adversarial bidirectional grid.
func BenchmarkE19_Modes(b *testing.B) {
	grid := gen.Grid(4, 4, "a")
	aplus := lrpq.MustParse("a+")
	plan := lrpq.NewPlan(eval.CompileProduct(grid, lrpq.Erase(aplus)).Kernel(), aplus)
	src, dst := 0, grid.NumNodes()-1
	b.Run("shortest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if meet, _ := plan.Search(src, dst, nil); meet.Len < 0 {
				b.Fatal("should exist")
			}
		}
	})
	b.Run("simple-exists", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res, _ := plan.Between(src, dst, eval.Simple, lrpq.Options{Limit: 1}); len(res) == 0 {
				b.Fatal("should exist")
			}
		}
	})
	b.Run("simple-enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			paths, err := plan.Between(src, dst, eval.Simple, lrpq.Options{})
			if err != nil || len(paths) == 0 {
				b.Fatal("expected simple paths")
			}
		}
	})
	// Practice-like sparse graph: trails are cheap.
	social := gen.Social(300, 7)
	b.Run("social-trail", func(b *testing.B) {
		e := lrpq.MustParse("(knows | follows)+")
		plan := lrpq.NewPlan(eval.CompileProduct(social, lrpq.Erase(e)).Kernel(), e)
		for i := 0; i < b.N; i++ {
			plan.Between(0, social.NumNodes()-1, eval.Trail, lrpq.Options{Limit: 1})
		}
	})
}

// BenchmarkE20_DataFilters measures register-product shortest search with
// data tests (the forced-cycle query of §6.3).
func BenchmarkE20_DataFilters(b *testing.B) {
	g := gen.BankProperty()
	mike, rebecca := g.MustNode("a3"), g.MustNode("a5")
	expr := dlrpq.MustParse(
		"() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dlrpq.EvalBetween(g, expr, mike, rebecca, eval.Shortest, dlrpq.Options{})
		if err != nil || len(res) == 0 || res[0].Path.Len() != 4 {
			b.Fatal("expected the length-4 cyclic path")
		}
	}
}

// BenchmarkE22_Automata measures the Glushkov + determinize + minimize +
// unambiguity pipeline over a workload of expressions.
func BenchmarkE22_Automata(b *testing.B) {
	workload := []rpq.Expr{
		rpq.MustParse("a (a | b)* b"),
		rpq.MustParse("(a b c){1,4}"),
		rpq.MustParse("!{a} _* (a | b)"),
		rpq.MustParse("(((a*)*)*)*"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range workload {
			nfa := rpq.Compile(rpq.Simplify(e))
			nfa.IsUnambiguous()
			nfa.Determinize().Minimize()
		}
	}
}

// BenchmarkE23_KShortest measures k-shortest walk enumeration delay: the
// first k paths of the PMR over the product, shortest first.
func BenchmarkE23_KShortest(b *testing.B) {
	g := gen.Random(200, 800, []string{"a"}, 11)
	expr := rpq.MustParse("a+")
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := pmr.FromKernel(eval.CompileProduct(g, expr).Kernel(), 0, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				if got, err := r.Enumerate(k, nil); err != nil || len(got) == 0 {
					b.Fatalf("expected walks (err %v)", err)
				}
			}
		})
	}
}

// BenchmarkE24_Spanner measures all-mapping enumeration for a quadratic-
// output capture expression.
func BenchmarkE24_Spanner(b *testing.B) {
	doc := ""
	for i := 0; i < 64; i++ {
		if i%4 == 0 {
			doc += "a"
		} else {
			doc += "b"
		}
	}
	e := spanner.Cap("x", spanner.Seq(spanner.Lit("a"), spanner.Star(spanner.Dot())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := spanner.Extract(doc, e); len(ms) == 0 {
			b.Fatal("expected matches")
		}
	}
}

// BenchmarkE18_BindingBlowup measures per-path binding enumeration for the
// (aa^z + a^z a)* expression.
func BenchmarkE18_BindingBlowup(b *testing.B) {
	e := lrpq.MustParse("(a a^z | a^z a)*")
	for _, n := range []int{6, 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen.APath(2*n, "a")
			p := chainPath(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := lrpq.BindingsOnPath(g, e, p); len(got) != 1<<uint(n) {
					b.Fatalf("bindings = %d", len(got))
				}
			}
		})
	}
}

// BenchmarkE06_ShortestGrouped measures the Example 17 ℓ-CRPQ end to end.
func BenchmarkE06_ShortestGrouped(b *testing.B) {
	g := gen.BankEdgeLabeled()
	eng := NewEngine(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Rows("q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)")
		if err != nil || len(res.Rows) == 0 {
			b.Fatal(err)
		}
	}
}

// Helpers shared by benchmarks.

func dateChain(n int) *graph.Graph {
	dates := make([]int64, n)
	for i := range dates {
		dates[i] = int64(i % (n/2 + 1))
	}
	return gen.DateEdgePath("a", dates)
}

func gqlWalk() gql.Pattern {
	return gql.Concat(gql.Node("x"),
		gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdge(), gql.AnonNode())),
		gql.Node("y"))
}

func gqlBadPair() gql.Pattern {
	return gql.Concat(gql.Node("x"),
		gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdge(), gql.AnonNode())),
		gql.Where(gql.Concat(gql.AnonNode(), gql.Edge("u"), gql.AnonNode(), gql.Edge("v"), gql.AnonNode()),
			coregql.Cmp("u", "k", graph.OpGe, "v", "k")),
		gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdge(), gql.AnonNode())),
		gql.Node("y"))
}

// chainPath returns the unique full node-to-node path of an APath graph.
func chainPath(g *graph.Graph) gpath.Path {
	p := gpath.OfNode(0)
	for e := 0; e < g.NumEdges(); e++ {
		next, ok := gpath.Concat(g, p, gpath.Triple(g, e))
		if !ok {
			panic("chainPath: disconnected")
		}
		p = next
	}
	return p
}

// BenchmarkE26_TwoWay measures two-way product evaluation (inverse atoms).
func BenchmarkE26_TwoWay(b *testing.B) {
	g := gen.Random(200, 800, []string{"owner", "Transfer"}, 5)
	e := twoway.MustParse("~owner Transfer+ owner")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		twoway.Pairs(g, e)
	}
}

// BenchmarkE27_Estimate contrasts statistics-based estimation with exact
// evaluation: the estimator must be orders of magnitude cheaper.
func BenchmarkE27_Estimate(b *testing.B) {
	g := gen.Random(400, 1600, []string{"a", "b"}, 3)
	e := rpq.MustParse("a (a | b)* b")
	stats := cardest.Of(g)
	b.Run("estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.Estimate(e, 0)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.Pairs(g, e)
		}
	})
}

// BenchmarkE28_Regular measures nested-CRPQ evaluation (materialize the
// virtual edges, then close them).
func BenchmarkE28_Regular(b *testing.B) {
	g := gen.Random(60, 240, []string{"Transfer"}, 9)
	prog := regular.MustParse(`
		Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
		q(a, b) :- Vedge+(a, b)
	`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regular.Eval(g, prog, crpq.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE29_Containment measures RPQ containment checks.
func BenchmarkE29_Containment(b *testing.B) {
	a := rpq.MustParse("(a b){1,6} (a | b)*")
	c := rpq.MustParse("(a | b)*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rpq.Contained(a, c) {
			b.Fatal("containment should hold")
		}
	}
}

// BenchmarkE30_WCOJ contrasts worst-case-optimal and pairwise-join
// evaluation of the triangle CRPQ on random graphs (§7.1: the AGM-bound
// direction). The pairwise plan materializes the quadratic 2-path
// intermediate; the WCOJ plan does not.
func BenchmarkE30_WCOJ(b *testing.B) {
	q := crpq.MustParse("q(x, y, z) :- a(x, y), a(y, z), a(z, x)")
	for _, n := range []int{60, 120} {
		g := gen.Random(n, 8*n, []string{"a"}, 21)
		b.Run(fmt.Sprintf("wcoj/n=%d", n), func(b *testing.B) {
			plan, err := crpq.Compile(g, q, func(e rpq.Expr) *pg.Kernel { return eval.CompileProduct(g, e).Kernel() })
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := plan.Eval(crpq.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pairwise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := crpq.Eval(g, q, crpq.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13_ParallelPairs measures the parallel per-source fan-out of
// eval.Pairs against the sequential path on a 10k-node random graph: the
// same product BFS per source, partitioned over a GOMAXPROCS-sized worker
// pool with deterministic index-ordered delivery. On a multi-core runner the
// parallel path should approach linear speedup; on one core the two paths
// coincide.
func BenchmarkE13_ParallelPairs(b *testing.B) {
	g := gen.Random(10000, 40000, []string{"a", "b", "c"}, 13)
	expr, err := rpq.Parse("a b*")
	if err != nil {
		b.Fatal(err)
	}
	nfa := rpq.Compile(expr)
	var want int
	for _, cfg := range []struct {
		name        string
		parallelism int
	}{
		{"seq", 1},
		{"par", 0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prs, _ := eval.PairsProduct(eval.NewProduct(g, nfa), eval.Options{Parallelism: cfg.parallelism})
				if want == 0 {
					want = len(prs)
				} else if len(prs) != want {
					b.Fatalf("got %d pairs, want %d", len(prs), want)
				}
			}
		})
	}
}

// BenchmarkE14_PlanCache measures query dispatch with a cold plan cache
// (every iteration parses and Glushkov-compiles the query on a fresh
// engine) versus a warm one (the engine reuses the cached plan). The query
// carries a bounded repetition — desugared to dozens of positions, each a
// quadratic Glushkov follow-set — so compilation dominates evaluation on
// the small path graph and the warm/cold gap isolates dispatch cost.
func BenchmarkE14_PlanCache(b *testing.B) {
	g := gen.APath(4, "a")
	const query = "(a | a a){2,20}"
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(g)
			if _, err := e.Pairs(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := NewEngine(g)
		if _, err := e.Pairs(query); err != nil {
			b.Fatal(err) // prime the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Pairs(query); err != nil {
				b.Fatal(err)
			}
		}
		if s := e.CacheStats(); s.Hits < int64(b.N) {
			b.Fatalf("cache not hit: %+v", s)
		}
	})
}
