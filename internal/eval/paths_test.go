package eval_test

// The path modes of Section 3.1.5 as the engine answers them: eval supplies
// the modes and the product, lrpq enumerates the paths between two nodes in
// each mode and pmr counts and lists them shortest first. These tests pin
// the answers on the small graphs of the paper's figures.

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
)

// paths is the answer of the anchored evaluator: the paths from src to dst
// matching expr under mode, in result order (length first).
func paths(t *testing.T, g *graph.Graph, expr string, src, dst int, mode eval.Mode, opts lrpq.Options) []gpath.Path {
	t.Helper()
	pbs, err := lrpq.EvalBetween(g, lrpq.MustParse(expr), src, dst, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]gpath.Path, len(pbs))
	for i, pb := range pbs {
		out[i] = pb.Path
	}
	return out
}

// exists reports whether some path from src to dst matches expr under mode.
func exists(t *testing.T, g *graph.Graph, expr string, src, dst int, mode eval.Mode) bool {
	t.Helper()
	return len(paths(t, g, expr, src, dst, mode, lrpq.Options{Limit: 1})) > 0
}

// countUpTo is the number of paths from src to dst of length ≤ maxLen that
// match e, read off the PMR: its cardinality when the set is finite and no
// longer than maxLen and e's automaton is unambiguous (Section 6.2: one
// accepting run per path, so the PMR counts paths, not runs), otherwise its
// shortest-first enumeration up to maxLen, which lists each path once.
func countUpTo(g *graph.Graph, e rpq.Expr, src, dst, maxLen int) *big.Int {
	r := representation(g, e, src, dst)
	if count, infinite := r.Cardinality(); !infinite && rpq.Compile(e).IsUnambiguous() {
		ps := shortestFirst(r, int(count.Int64()))
		if len(ps) == 0 || ps[len(ps)-1].Len() <= maxLen {
			return count
		}
	}
	n := int64(0)
	it := r.Iterate(nil)
	for p, ok, _ := it.Next(); ok && p.Len() <= maxLen; p, ok, _ = it.Next() {
		n++
	}
	return big.NewInt(n)
}

// representation is the PMR of every path from src to dst matching e.
func representation(g *graph.Graph, e rpq.Expr, src, dst int) *pmr.PMR {
	r, err := pmr.FromKernel(eval.CompileProduct(g, e).Kernel(), src, dst, nil)
	if err != nil {
		panic(err) // impossible without a meter
	}
	return r
}

// shortestFirst is the first limit paths of r's shortest-first listing.
func shortestFirst(r *pmr.PMR, limit int) []gpath.Path {
	ps, err := r.Enumerate(limit, nil)
	if err != nil {
		panic(err)
	}
	return ps
}

// twoCycle is u ⇄ v plus u → w, all edges labelled a: from u to w the only
// simple path is the direct edge, and a trail may go round the cycle once.
func twoCycle() *graph.Graph {
	return graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).AddNode("w", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "u", nil).
		AddEdge("e3", "a", "u", "w", nil).
		MustBuild()
}

func TestWitnessShortest(t *testing.T) {
	g := gen.BankEdgeLabeled()
	ps := paths(t, g, "Transfer+", g.MustNode("a3"), g.MustNode("a5"), eval.Shortest, lrpq.Options{Limit: 1})
	if len(ps) != 1 {
		t.Fatal("no witness")
	}
	if got := ps[0].Format(g); got != "path(a3, t7, a5)" {
		t.Errorf("witness = %s, want path(a3, t7, a5)", got)
	}
	if ps := paths(t, g, "owner owner", 0, 1, eval.Shortest, lrpq.Options{Limit: 1}); len(ps) != 0 {
		t.Error("no owner·owner path should exist")
	}
	// ε-witness: src = dst with Transfer*.
	a1 := g.MustNode("a1")
	ps = paths(t, g, "Transfer*", a1, a1, eval.Shortest, lrpq.Options{Limit: 1})
	if len(ps) != 1 || ps[0].Len() != 0 {
		t.Errorf("ε witness: %v", ps)
	}
}

func TestPathsShortestFigure5(t *testing.T) {
	// Figure 5: exactly 2ⁿ shortest paths from s to t.
	for n := 1; n <= 8; n++ {
		g := gen.Figure5(n)
		ps := paths(t, g, "a*", g.MustNode("s"), g.MustNode("t"), eval.Shortest, lrpq.Options{})
		if want := 1 << n; len(ps) != want {
			t.Errorf("n=%d: shortest paths = %d, want %d", n, len(ps), want)
		}
		for _, p := range ps {
			if p.Len() != n {
				t.Errorf("n=%d: path of length %d in shortest set", n, p.Len())
			}
		}
	}
}

func TestPathsAllBounded(t *testing.T) {
	g := gen.Cycle(3, "a")
	v0 := g.MustNode("v0")
	ps := paths(t, g, "a*", v0, v0, eval.All, lrpq.Options{MaxLen: 9})
	// Lengths 0, 3, 6, 9.
	if len(ps) != 4 {
		t.Fatalf("paths = %d, want 4", len(ps))
	}
	for i, want := range []int{0, 3, 6, 9} {
		if ps[i].Len() != want {
			t.Errorf("path %d length = %d, want %d", i, ps[i].Len(), want)
		}
	}
}

func TestPathsAllUnboundedError(t *testing.T) {
	g := gen.Cycle(3, "a")
	if _, err := lrpq.EvalBetween(g, lrpq.MustParse("a*"), 0, 0, eval.All, lrpq.Options{}); !errors.Is(err, lrpq.ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestPathsAllLimitOnly(t *testing.T) {
	g := gen.Cycle(3, "a")
	ps := paths(t, g, "a*", 0, 0, eval.All, lrpq.Options{Limit: 3})
	if len(ps) != 3 {
		t.Fatalf("paths = %d, want 3 (limit)", len(ps))
	}
	for i, want := range []int{0, 3, 6} {
		if ps[i].Len() != want {
			t.Errorf("path %d length = %d, want %d (shortest-first)", i, ps[i].Len(), want)
		}
	}
}

func TestPathsSimpleAndTrail(t *testing.T) {
	// From u to w: simple paths: e3 only (length 1); trails may loop once:
	// e1·e2·e3.
	g := twoCycle()
	u, w := g.MustNode("u"), g.MustNode("w")
	simple := paths(t, g, "a*", u, w, eval.Simple, lrpq.Options{})
	if len(simple) != 1 || simple[0].Len() != 1 {
		t.Errorf("simple paths = %v, want just u→w", len(simple))
	}
	trails := paths(t, g, "a*", u, w, eval.Trail, lrpq.Options{})
	if len(trails) != 2 {
		t.Errorf("trails = %d, want 2 (direct and around the 2-cycle)", len(trails))
	}
	for _, p := range trails {
		if !p.IsTrail() {
			t.Errorf("non-trail returned: %s", p.Format(g))
		}
	}
}

func TestPathsSimpleRespectsExpr(t *testing.T) {
	// Only even-length a-paths: (aa)* from u to w has no simple match (the
	// only simple path has length 1).
	g := twoCycle()
	u, w := g.MustNode("u"), g.MustNode("w")
	if simple := paths(t, g, "(a a)*", u, w, eval.Simple, lrpq.Options{}); len(simple) != 0 {
		t.Errorf("simple (aa)* paths = %d, want 0", len(simple))
	}
	// But as a trail, e1·e2·e3 would be length 3 (odd): still none.
	if trails := paths(t, g, "(a a)*", u, w, eval.Trail, lrpq.Options{}); len(trails) != 0 {
		t.Errorf("trail (aa)* paths = %d, want 0", len(trails))
	}
}

func TestCountMatchingPaths(t *testing.T) {
	// Figure 5 with n stages: 2ⁿ a-paths s→t of length n.
	g := gen.Figure5(6)
	got := countUpTo(g, rpq.MustParse("a*"), g.MustNode("s"), g.MustNode("t"), 6)
	if got.Int64() != 64 {
		t.Errorf("count = %v, want 64", got)
	}
	// Cycle of 3: paths v0→v0 with length ≤ 7 have lengths 0, 3, 6.
	c := gen.Cycle(3, "a")
	got = countUpTo(c, rpq.MustParse("a*"), 0, 0, 7)
	if got.Int64() != 3 {
		t.Errorf("cycle count = %v, want 3", got)
	}
	// An ambiguous expression must still count paths, not runs.
	amb := rpq.MustParse("a a* | a* a")
	p4 := gen.APath(3, "a")
	got = countUpTo(p4, amb, p4.MustNode("v0"), p4.MustNode("v3"), 5)
	if got.Int64() != 1 {
		t.Errorf("ambiguous-expression count = %v, want 1 (single path)", got)
	}
}

func TestCountMatchesEnumeration(t *testing.T) {
	// Cross-check the PMR's count against the anchored evaluator in mode
	// all on random graphs.
	rng := rand.New(rand.NewSource(5))
	exprs := []string{"a*", "(a b)*", "a (a | b)*", "(a a)*"}
	for trial := 0; trial < 20; trial++ {
		g := gen.Random(4, 7, []string{"a", "b"}, int64(trial)*77+1)
		text := exprs[rng.Intn(len(exprs))]
		src, dst := rng.Intn(4), rng.Intn(4)
		const maxLen = 5
		ps := paths(t, g, text, src, dst, eval.All, lrpq.Options{MaxLen: maxLen})
		count := countUpTo(g, rpq.MustParse(text), src, dst, maxLen)
		if count.Int64() != int64(len(ps)) {
			t.Errorf("trial %d: count = %v, enumerated = %d (expr %s, %d→%d)",
				trial, count, len(ps), text, src, dst)
		}
	}
}

func TestKShortestWalks(t *testing.T) {
	g := gen.Cycle(3, "a")
	walks := shortestFirst(representation(g, rpq.MustParse("a*"), 0, 0), 4)
	if len(walks) != 4 {
		t.Fatalf("walks = %d, want 4", len(walks))
	}
	for i, want := range []int{0, 3, 6, 9} {
		if walks[i].Len() != want {
			t.Errorf("walk %d length = %d, want %d", i, walks[i].Len(), want)
		}
	}
	// Lengths must be nondecreasing on a branching graph too.
	f := gen.Figure5(3)
	walks = shortestFirst(representation(f, rpq.MustParse("a*"), f.MustNode("s"), f.MustNode("t")), 8)
	if len(walks) != 8 {
		t.Fatalf("figure5 walks = %d, want 8", len(walks))
	}
	for i := 1; i < len(walks); i++ {
		if walks[i].Len() < walks[i-1].Len() {
			t.Error("walk lengths must be nondecreasing")
		}
	}
}

func TestExistsMode(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "u", nil).
		MustBuild()
	u := g.MustNode("u")
	// A length-4 a-path u→u exists as a walk but not as a trail or simple path.
	if !exists(t, g, "a a a a", u, u, eval.All) {
		t.Error("walk of length 4 exists")
	}
	if exists(t, g, "a a a a", u, u, eval.Trail) {
		t.Error("no trail of length 4 (only 2 edges)")
	}
	if exists(t, g, "a a a a", u, u, eval.Simple) {
		t.Error("no simple path of length 4")
	}
	if !exists(t, g, "a a", u, u, eval.Trail) {
		t.Error("e1·e2 is a trail u→u")
	}
	if exists(t, g, "a a", u, u, eval.Simple) {
		t.Error("u→v→u repeats u: not simple")
	}
}

func TestShortestEnumerationMatchesFilteredAll(t *testing.T) {
	// On random graphs, Shortest = the minimal-length slice of All.
	for trial := 0; trial < 10; trial++ {
		g := gen.Random(4, 7, []string{"a", "b"}, int64(trial)*31+3)
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				all := paths(t, g, "(a|b)+", src, dst, eval.All, lrpq.Options{MaxLen: 5})
				short := paths(t, g, "(a|b)+", src, dst, eval.Shortest, lrpq.Options{})
				if len(all) == 0 {
					// No path within the bound; Shortest may still find a
					// longer one — skip the comparison.
					continue
				}
				min := all[0].Len()
				var wantKeys []string
				for _, p := range all {
					if p.Len() == min {
						wantKeys = append(wantKeys, p.Key())
					}
				}
				if len(short) != len(wantKeys) {
					t.Fatalf("trial %d %d→%d: shortest = %d paths, want %d",
						trial, src, dst, len(short), len(wantKeys))
				}
				for i, p := range short {
					if p.Key() != wantKeys[i] {
						t.Fatalf("trial %d: shortest path mismatch", trial)
					}
				}
			}
		}
	}
}
