// Byte-identity of the unified tiers: every upper-language evaluator that
// was refactored onto the product-graph kernel must return exactly what its
// pre-refactor evaluator returned — same answers, same order — on random
// graphs, under the sequential and parallel plans. The kernel
// is an execution substrate, never a semantics change.
package crossval_test

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"graphquery/internal/bag"
	"graphquery/internal/core"
	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/pmr"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
)

// roomyMeter is a meter whose budgets no workload here reaches: the
// metered entry points run their charging paths, and must answer exactly
// what the unmetered ones do.
func roomyMeter() *pg.Meter {
	return pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 40, MaxRows: 1 << 40}, nil, nil)
}

// unifiedPlans are the kernel configurations the acceptance bar names: the
// sequential sweep and the parallel per-source fan-out.
var unifiedPlans = []struct {
	name string
	opts eval.Options
}{
	{"sequential", eval.Options{Parallelism: 1}},
	{"parallel", eval.Options{Parallelism: 4}},
}

// projectPairs projects matches onto sorted, deduplicated endpoint pairs:
// the pair answer of a pattern's match set.
func projectPairs[B any](g *graph.Graph, ms []coregql.MatchOf[B]) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, m := range ms {
		s, ok1 := m.Path.Src(g)
		t, ok2 := m.Path.Tgt(g)
		if pr := [2]int{s, t}; ok1 && ok2 && !seen[pr] {
			seen[pr] = true
			out = append(out, pr)
		}
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// skeletonPairs is the kernel's answer to a regular pattern: the pairs of
// its skeleton RPQ (coregql.Skeleton) under one plan and a roomy meter.
func skeletonPairs(t *testing.T, g *graph.Graph, e rpq.Expr, opts eval.Options) [][2]int {
	t.Helper()
	opts.Meter = roomyMeter()
	out, err := eval.PairsProduct(eval.CompileProduct(g, e), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGQLKernelMatchesReference: a regular GQL pattern without unbounded
// repetition (coregql.Regular) is its skeleton RPQ: the enumerator's
// matches project onto exactly the kernel's pairs of coregql.Skeleton,
// under every plan.
func TestGQLKernelMatchesReference(t *testing.T) {
	pats := []struct {
		name string
		p    gql.Pattern
	}{
		{"edge", gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("y"))},
		{"union", gql.Union(
			gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode()),
			gql.Concat(gql.AnonNode(), gql.AnonEdgeL("b"), gql.AnonNode(), gql.AnonEdgeL("c"), gql.AnonNode()))},
		{"repeat", gql.Concat(gql.Node("x"),
			gql.Repeat(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("b"), gql.AnonNode()), 1, 2),
			gql.Node("y"))},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*17+3)
		for _, tc := range pats {
			if !coregql.Regular(tc.p) || coregql.Unbounded(tc.p) {
				t.Fatalf("pattern %s must be regular and bounded", tc.name)
			}
			ms, err := gql.EvalPattern(g, tc.p, gql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := projectPairs(g, ms)
			for _, pl := range unifiedPlans {
				if want := skeletonPairs(t, g, coregql.Skeleton(tc.p), pl.opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s/%s: enumerator %v, kernel %v", trial, tc.name, pl.name, got, want)
				}
			}
		}
	}
}

// TestCoreGQLKernelMatchesReference: same contract for CoreGQL, whose
// regular fragment (no conditions, no repeated variables) has a label-free
// skeleton RPQ.
func TestCoreGQLKernelMatchesReference(t *testing.T) {
	pats := []struct {
		name string
		p    coregql.Pattern
	}{
		{"edge", coregql.Concat(coregql.Node("x"), coregql.AnonEdge(), coregql.Node("y"))},
		{"union", coregql.Union(
			coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode()),
			coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode()))},
		{"repeat", coregql.Concat(coregql.Node("x"),
			coregql.Repeat(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode()), 1, 2),
			coregql.Node("y"))},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*23+7)
		for _, tc := range pats {
			if !coregql.Regular(tc.p) || coregql.Unbounded(tc.p) {
				t.Fatalf("pattern %s must be regular and bounded", tc.name)
			}
			ms, err := coregql.EvalPattern(g, tc.p, coregql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := projectPairs(g, ms)
			for _, pl := range unifiedPlans {
				if want := skeletonPairs(t, g, coregql.Skeleton(tc.p), pl.opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s/%s: enumerator %v, kernel %v", trial, tc.name, pl.name, got, want)
				}
			}
		}
	}
}

// TestCypherKernelMatchesReference: the served cypher row answers a
// fragment pattern with exactly the plain evaluation of the RPQ it
// compiles to, under every plan.
func TestCypherKernelMatchesReference(t *testing.T) {
	pats := []struct {
		name string
		p    cypherfrag.Pattern
	}{
		{"star", cypherfrag.StarOf("a")},
		{"concat", cypherfrag.Concat(cypherfrag.Edge("a"), cypherfrag.StarOf("b", "c"))},
		{"union", cypherfrag.Union(cypherfrag.Edge("a"),
			cypherfrag.Concat(cypherfrag.Edge("b"), cypherfrag.Edge("c")))},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*29+5)
		for _, tc := range pats {
			var want [][2]graph.NodeID
			for _, pr := range eval.Pairs(g, cypherfrag.Compile(tc.p)) {
				want = append(want, [2]graph.NodeID{g.Node(pr[0]).ID, g.Node(pr[1]).ID})
			}
			for _, pl := range unifiedPlans {
				e := core.New(g)
				e.Parallelism = pl.opts.Parallelism
				resp, err := e.Query(core.Request{Lang: "cypher", Query: tc.p.String()})
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, tc.name, pl.name, err)
				}
				if !reflect.DeepEqual(resp.Pairs, want) {
					t.Fatalf("trial %d %s/%s: served %v, reference %v", trial, tc.name, pl.name, resp.Pairs, want)
				}
			}
		}
	}
}

// TestPMRCtxMatchesLegacy: a meter changes nothing but the accounting —
// both PMR constructors build the same representation with one as without
// one — and Enumerate lists the head of what the iterator yields, for both
// the full and the shortest-path representations.
func TestPMRCtxMatchesLegacy(t *testing.T) {
	exprs := []string{"a*", "a* b*", "(a | b) c*"}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(20, 60, []string{"a", "b", "c"}, int64(trial)*31+13)
		for _, q := range exprs {
			kern := eval.CompileProduct(g, rpq.MustParse(q)).Kernel()
			for s := 0; s < 3; s++ {
				for d := 3; d < 6; d++ {
					for _, build := range []struct {
						name string
						f    func(*pg.Kernel, int, int, *pg.Meter) (*pmr.PMR, error)
					}{{"all", pmr.FromKernel}, {"shortest", pmr.ShortestFromKernel}} {
						bare, err1 := build.f(kern, s, d, nil)
						got, err2 := build.f(kern, s, d, roomyMeter())
						if err1 != nil || err2 != nil {
							t.Fatalf("trial %d %q (%d,%d) %s: %v, %v", trial, q, s, d, build.name, err1, err2)
						}
						if !reflect.DeepEqual(got, bare) {
							t.Fatalf("trial %d %q (%d,%d) %s: the metered build differs", trial, q, s, d, build.name)
						}
						gotPaths, err := got.Enumerate(50, roomyMeter())
						if err != nil {
							t.Fatalf("trial %d %q (%d,%d) %s: enumerate: %v", trial, q, s, d, build.name, err)
						}
						var wantPaths []gpath.Path
						it := bare.Iterate(nil)
						for p, ok, _ := it.Next(); ok && len(wantPaths) < 50; p, ok, _ = it.Next() {
							wantPaths = append(wantPaths, p)
						}
						if !reflect.DeepEqual(gotPaths, wantPaths) {
							t.Fatalf("trial %d %q (%d,%d) %s: Enumerate is not the iterator's head", trial, q, s, d, build.name)
						}
					}
				}
			}
		}
	}
}

// TestSpannerCtxMatchesLegacy: the metered spanner evaluation (kernel
// feasibility gate + charged enumeration) returns exactly the legacy match
// set, in the same order.
func TestSpannerCtxMatchesLegacy(t *testing.T) {
	docs := []string{"abcab", "aabbaacca", "abc abc ab", "aaaaabbbbb"}
	exprs := []struct {
		name string
		e    spanner.Expr
	}{
		{"two-stars", spanner.Seq(
			spanner.Cap("x", spanner.Star(spanner.Lit("a"))),
			spanner.Cap("y", spanner.Star(spanner.Alt(spanner.Lit("b"), spanner.Lit("c")))))},
		{"word", spanner.Cap("w", spanner.Plus(spanner.Alt(spanner.Lit("ab"), spanner.Lit("c"))))},
		{"nested", spanner.Cap("o", spanner.Seq(spanner.Lit("a"), spanner.Cap("i", spanner.Star(spanner.Lit("b")))))},
	}
	for _, doc := range docs {
		for _, tc := range exprs {
			want := spanner.Evaluate(doc, tc.e)
			got, err := spanner.EvaluateMeter(doc, tc.e, roomyMeter())
			if err != nil {
				t.Fatalf("%q/%s: %v", doc, tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q/%s: ctx matches diverged\ngot %v\nwant %v", doc, tc.name, got, want)
			}
		}
	}
}

// TestBagCtxMatchesLegacy: bag-semantics counting with the kernel
// feasibility pruning agrees exactly with the legacy enumeration — per
// pair and in total — and the set-semantics cardinality is the kernel's
// pair count (count(u, v, e) > 0 exactly when (u, v) ∈ ⟦e⟧).
func TestBagCtxMatchesLegacy(t *testing.T) {
	exprs := []string{"a", "a b", "a*", "(a | b)*"}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(8, 20, []string{"a", "b"}, int64(trial)*37+19)
		for _, q := range exprs {
			e := rpq.MustParse(q)
			wantTotal := bag.TotalCount(g, e)
			gotTotal, err := bag.TotalCountMeter(g, e, roomyMeter())
			if err != nil {
				t.Fatalf("trial %d %q: total: %v", trial, q, err)
			}
			if gotTotal.Cmp(wantTotal) != 0 {
				t.Fatalf("trial %d %q: total %s, legacy %s", trial, q, gotTotal, wantTotal)
			}
			for u := 0; u < g.NumNodes(); u++ {
				for v := 0; v < g.NumNodes(); v++ {
					want := bag.Count(g, e, u, v)
					got, err := bag.CountMeter(g, e, u, v, roomyMeter())
					if err != nil {
						t.Fatalf("trial %d %q (%d,%d): %v", trial, q, u, v, err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("trial %d %q (%d,%d): count %s, legacy %s", trial, q, u, v, got, want)
					}
				}
			}
			gotSet := bag.SetCount(g, e)
			for _, pl := range unifiedPlans {
				if wantSet := len(skeletonPairs(t, g, e, pl.opts)); gotSet != wantSet {
					t.Fatalf("trial %d %q/%s: set %d, kernel pairs %d", trial, q, pl.name, gotSet, wantSet)
				}
			}
		}
	}
}

// TestRelAlgKernelMatchesReference: REACH atoms evaluated on the kernel
// produce the same relation as one built directly from the plain pair
// evaluator, and the set/bag operators compose those atoms identically.
func TestRelAlgKernelMatchesReference(t *testing.T) {
	reachRel := func(pairs [][2]int, x, y string) *relalg.Relation {
		rel := relalg.MustNewRelation(x, y)
		for _, pr := range pairs {
			rel.MustAdd(relalg.NodeCell(pr[0]), relalg.NodeCell(pr[1]))
		}
		return rel
	}
	must := func(rel *relalg.Relation, err error) *relalg.Relation {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*41+23)
		ra := reachRel(eval.Pairs(g, rpq.MustParse("a*")), "x", "y")
		rb := reachRel(eval.Pairs(g, rpq.MustParse("b")), "y", "z")
		rc := reachRel(eval.Pairs(g, rpq.MustParse("c")), "x", "y")
		cases := []struct {
			query string
			want  *relalg.Relation
		}{
			{"REACH(a*) AS (x, y)", ra},
			{"REACH(a*) AS (x, y) JOIN REACH(b) AS (y, z)", must(ra.Join(rb))},
			{"REACH(a*) AS (x, y) UNION REACH(c) AS (x, y)", must(ra.Union(rc))},
			{"REACH(a*) AS (x, y) DIFF REACH(c) AS (x, y)", must(ra.Diff(rc))},
			{"PROJECT(REACH(a*) AS (x, y) JOIN REACH(b) AS (y, z); x, z)", must(must(ra.Join(rb)).Project("x", "z"))},
		}
		for _, tc := range cases {
			q := relalg.MustParseQuery(tc.query)
			for _, pl := range unifiedPlans {
				opts := pl.opts
				opts.Meter = roomyMeter()
				got, err := relalg.EvalQuery(q, opts, products(g))
				if err != nil {
					t.Fatalf("trial %d %q/%s: %v", trial, tc.query, pl.name, err)
				}
				if !reflect.DeepEqual(got.Attrs(), tc.want.Attrs()) {
					t.Fatalf("trial %d %q/%s: attrs %v, want %v", trial, tc.query, pl.name, got.Attrs(), tc.want.Attrs())
				}
				if !reflect.DeepEqual(got.Sorted(), tc.want.Sorted()) {
					t.Fatalf("trial %d %q/%s: kernel relation diverged from reference", trial, tc.query, pl.name)
				}
			}
		}
	}
}
