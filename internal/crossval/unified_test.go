// Byte-identity of the unified tiers: every upper-language evaluator that
// was refactored onto the product-graph kernel must return exactly what its
// pre-refactor evaluator returned — same answers, same order — on random
// graphs, under the sequential and parallel plans. The kernel
// is an execution substrate, never a semantics change.
package crossval_test

import (
	"context"
	"reflect"
	"testing"

	"graphquery/internal/bag"
	"graphquery/internal/coregql"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
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

// TestGQLKernelMatchesReference: for regular GQL patterns the kernel path
// (skeleton RPQ on the product graph, length-bounded by NFA unrolling)
// projects exactly the endpoint pairs of the reference pattern evaluator.
func TestGQLKernelMatchesReference(t *testing.T) {
	pats := []struct {
		name   string
		p      gql.Pattern
		maxLen int
	}{
		{"edge", gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("y")), 0},
		{"star", gql.Concat(gql.Node("x"),
			gql.Star(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode())),
			gql.Node("y")), 3},
		{"union", gql.Union(
			gql.Concat(gql.AnonNode(), gql.AnonEdgeL("a"), gql.AnonNode()),
			gql.Concat(gql.AnonNode(), gql.AnonEdgeL("b"), gql.AnonNode(), gql.AnonEdgeL("c"), gql.AnonNode())), 0},
		{"repeat", gql.Concat(gql.Node("x"),
			gql.Repeat(gql.Concat(gql.AnonNode(), gql.AnonEdgeL("b"), gql.AnonNode()), 1, 2),
			gql.Node("y")), 0},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*17+3)
		for _, tc := range pats {
			if !coregql.Regular(tc.p) {
				t.Fatalf("pattern %s must be regular for the kernel path", tc.name)
			}
			ms, err := gql.EvalPattern(g, tc.p, gql.Options{MaxLen: tc.maxLen})
			if err != nil {
				t.Fatal(err)
			}
			want := coregql.ProjectPairs(g, ms)
			for _, pl := range unifiedPlans {
				opts := pl.opts
				opts.MaxLen, opts.Meter = tc.maxLen, roomyMeter()
				got, err := gql.Pairs(g, tc.p, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, tc.name, pl.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s/%s: kernel %v, reference %v", trial, tc.name, pl.name, got, want)
				}
			}
		}
	}
}

// TestCoreGQLKernelMatchesReference: same contract for CoreGQL, whose
// regular fragment (no conditions, no repeated variables) compiles to a
// label-free skeleton RPQ.
func TestCoreGQLKernelMatchesReference(t *testing.T) {
	pats := []struct {
		name   string
		p      coregql.Pattern
		maxLen int
	}{
		{"edge", coregql.Concat(coregql.Node("x"), coregql.AnonEdge(), coregql.Node("y")), 0},
		{"star", coregql.Concat(coregql.Node("x"),
			coregql.Star(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())),
			coregql.Node("y")), 3},
		{"union", coregql.Union(
			coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode()),
			coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode())), 0},
		{"repeat", coregql.Concat(coregql.Node("x"),
			coregql.Repeat(coregql.Concat(coregql.AnonNode(), coregql.AnonEdge(), coregql.AnonNode()), 1, 2),
			coregql.Node("y")), 0},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(30, 90, []string{"a", "b", "c"}, int64(trial)*23+7)
		for _, tc := range pats {
			if !coregql.Regular(tc.p) {
				t.Fatalf("pattern %s must be regular for the kernel path", tc.name)
			}
			ms, err := coregql.EvalPattern(g, tc.p, coregql.Options{MaxLen: tc.maxLen})
			if err != nil {
				t.Fatal(err)
			}
			want := coregql.ProjectPairs(g, ms)
			for _, pl := range unifiedPlans {
				opts := pl.opts
				opts.MaxLen, opts.Meter = tc.maxLen, roomyMeter()
				got, err := coregql.Pairs(g, tc.p, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, tc.name, pl.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s/%s: kernel %v, reference %v", trial, tc.name, pl.name, got, want)
				}
			}
		}
	}
}

// TestCypherKernelMatchesReference: the Cypher fragment compiles to an RPQ;
// its metered kernel entry must reproduce the plain unmetered evaluation
// under every plan.
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
			want := eval.Pairs(g, cypherfrag.Compile(tc.p))
			for _, pl := range unifiedPlans {
				opts := pl.opts
				opts.Meter = roomyMeter()
				got, err := cypherfrag.Pairs(g, tc.p, opts)
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, tc.name, pl.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s/%s: kernel %v, reference %v", trial, tc.name, pl.name, got, want)
				}
			}
		}
	}
}

// TestPMRCtxMatchesLegacy: the metered PMR constructors build the same
// representation as the legacy unmetered ones — identical enumerations,
// identical cardinalities — for both the full and shortest-path variants.
func TestPMRCtxMatchesLegacy(t *testing.T) {
	exprs := []string{"a*", "a* b*", "(a | b) c*"}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(20, 60, []string{"a", "b", "c"}, int64(trial)*31+13)
		for _, q := range exprs {
			e := rpq.MustParse(q)
			for s := 0; s < 3; s++ {
				for d := 3; d < 6; d++ {
					legacy := pmr.FromProduct(g, e, s, d)
					got, err := pmr.FromProductMeter(g, e, s, d, roomyMeter())
					if err != nil {
						t.Fatalf("trial %d %q (%d,%d): %v", trial, q, s, d, err)
					}
					wantPaths := legacy.Enumerate(50)
					gotPaths, err := got.EnumerateMeter(50, roomyMeter())
					if err != nil {
						t.Fatalf("trial %d %q (%d,%d): enumerate: %v", trial, q, s, d, err)
					}
					if !reflect.DeepEqual(gotPaths, wantPaths) {
						t.Fatalf("trial %d %q (%d,%d): ctx enumeration diverged", trial, q, s, d)
					}

					legacyS := pmr.ShortestFromProduct(g, e, s, d)
					gotS, err := pmr.ShortestFromProductMeter(g, e, s, d, roomyMeter())
					if err != nil {
						t.Fatalf("trial %d %q (%d,%d): shortest: %v", trial, q, s, d, err)
					}
					if !reflect.DeepEqual(gotS.Enumerate(50), legacyS.Enumerate(50)) {
						t.Fatalf("trial %d %q (%d,%d): shortest enumeration diverged", trial, q, s, d)
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
// pair, in total, and for the kernel-computed set-semantics cardinality.
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
			wantSet := bag.SetCount(g, e)
			for _, pl := range unifiedPlans {
				opts := pl.opts
				opts.Meter = roomyMeter()
				gotSet, err := bag.SetCountKernel(g, e, opts)
				if err != nil {
					t.Fatalf("trial %d %q/%s: set: %v", trial, q, pl.name, err)
				}
				if gotSet != wantSet {
					t.Fatalf("trial %d %q/%s: set %d, legacy %d", trial, q, pl.name, gotSet, wantSet)
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
				got, err := relalg.EvalQuery(g, q, opts)
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
