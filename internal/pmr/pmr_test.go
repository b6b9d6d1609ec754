package pmr

import (
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
)

func TestNewValidatesHomomorphism(t *testing.T) {
	g := gen.APath(2, "a") // v0 -e1-> v1 -e2-> v2
	e1 := g.MustEdge("e1")
	// Valid: PMR node 0 ↦ v0, node 1 ↦ v1, edge ↦ e1.
	if _, err := New(g, []int{g.MustNode("v0"), g.MustNode("v1")},
		[]Edge{{Src: 0, Tgt: 1, GEdge: e1}}, []int{0}, []int{1}); err != nil {
		t.Fatalf("valid PMR rejected: %v", err)
	}
	// Invalid: edge image endpoints do not match γ of the PMR endpoints.
	if _, err := New(g, []int{g.MustNode("v1"), g.MustNode("v2")},
		[]Edge{{Src: 0, Tgt: 1, GEdge: e1}}, []int{0}, []int{1}); err == nil {
		t.Error("homomorphism violation not detected")
	}
	// Out-of-range source.
	if _, err := New(g, []int{0}, nil, []int{4}, nil); err == nil {
		t.Error("out-of-range source not detected")
	}
	// Out-of-range edge endpoint.
	if _, err := New(g, []int{0}, []Edge{{Src: 0, Tgt: 9, GEdge: e1}}, nil, nil); err == nil {
		t.Error("out-of-range edge endpoint not detected")
	}
}

// TestMikeCyclesPMR reproduces the Section 6.4 example: a finite PMR (three
// nodes, three edges) representing the infinitely many transfer cycles from
// Mike (a3) back to Mike that avoid blocked accounts — looping through
// t7, t4, t1.
func TestMikeCyclesPMR(t *testing.T) {
	g := gen.BankProperty()
	a3, a5, a1 := g.MustNode("a3"), g.MustNode("a5"), g.MustNode("a1")
	r, err := New(g,
		[]int{a3, a5, a1},
		[]Edge{
			{Src: 0, Tgt: 1, GEdge: g.MustEdge("t7")},
			{Src: 1, Tgt: 2, GEdge: g.MustEdge("t4")},
			{Src: 2, Tgt: 0, GEdge: g.MustEdge("t1")},
		},
		[]int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 6 {
		t.Errorf("Size = %d, want 6 (3 nodes + 3 edges)", r.Size())
	}
	// The represented set is infinite.
	if _, infinite := r.Cardinality(); !infinite {
		t.Error("cycle language must be infinite")
	}
	// Enumerate the first three: lengths 0, 3, 6.
	paths := first(r, 3)
	if len(paths) != 3 {
		t.Fatalf("enumerated %d, want 3", len(paths))
	}
	for i, want := range []int{0, 3, 6} {
		if paths[i].Len() != want {
			t.Errorf("path %d length = %d, want %d", i, paths[i].Len(), want)
		}
	}
	if got := paths[1].Format(g); got != "path(a3, t7, a5, t4, a1, t1, a3)" {
		t.Errorf("cycle = %s", got)
	}
	// Membership: the length-3 cycle is in, a wrong path is out.
	if !r.Contains(paths[2]) {
		t.Error("enumerated path not contained")
	}
	direct, _ := gpath.New(g,
		graph.MakeNodeObject(a3),
		graph.MakeEdgeObject(g.MustEdge("t6")),
		graph.MakeNodeObject(g.MustNode("a4")))
	if r.Contains(direct) {
		t.Error("t6 path must not be contained")
	}
}

func TestFromProductFigure5(t *testing.T) {
	// E17: on Figure 5 with n stages, the PMR for a* s→t has Θ(n) size but
	// represents 2ⁿ paths.
	for n := 1; n <= 12; n++ {
		g := gen.Figure5(n)
		r := allOf(g, rpq.MustParse("a*"), g.MustNode("s"), g.MustNode("t"))
		count, infinite := r.Cardinality()
		if infinite {
			t.Fatalf("n=%d: finite path set misreported as infinite", n)
		}
		if want := int64(1) << n; count.Int64() != want {
			t.Errorf("n=%d: cardinality = %v, want %d", n, count, want)
		}
		if r.Size() > 8*(n+1) {
			t.Errorf("n=%d: PMR size %d not linear in n", n, r.Size())
		}
	}
}

func TestFromProductInfinite(t *testing.T) {
	g := gen.Cycle(3, "a")
	r := allOf(g, rpq.MustParse("a*"), 0, 0)
	if _, infinite := r.Cardinality(); !infinite {
		t.Error("a* on a cycle from v0 to v0 is infinite")
	}
	paths := first(r, 4)
	if len(paths) != 4 {
		t.Fatalf("enumerate: %d", len(paths))
	}
	for i, want := range []int{0, 3, 6, 9} {
		if paths[i].Len() != want {
			t.Errorf("path %d length = %d, want %d", i, paths[i].Len(), want)
		}
	}
}

func TestFromProductEmptyLanguage(t *testing.T) {
	g := gen.APath(2, "a")
	r := allOf(g, rpq.MustParse("b"), g.MustNode("v0"), g.MustNode("v2"))
	count, infinite := r.Cardinality()
	if infinite || count.Sign() != 0 {
		t.Errorf("no b-paths: count = %v, infinite = %v", count, infinite)
	}
	if got := first(r, 5); len(got) != 0 {
		t.Errorf("enumerated %d from empty set", len(got))
	}
}

func TestShortestFromProduct(t *testing.T) {
	for n := 1; n <= 8; n++ {
		g := gen.Figure5(n)
		r := shortestOf(g, rpq.MustParse("a*"), g.MustNode("s"), g.MustNode("t"))
		count, infinite := r.Cardinality()
		if infinite {
			t.Fatalf("shortest PMR must be a DAG")
		}
		if want := int64(1) << n; count.Int64() != want {
			t.Errorf("n=%d: shortest cardinality = %v, want %d", n, count, want)
		}
	}
	// On a cycle, there is exactly one shortest v0→v0 path: the empty one.
	g := gen.Cycle(3, "a")
	r := shortestOf(g, rpq.MustParse("a*"), 0, 0)
	count, infinite := r.Cardinality()
	if infinite || count.Int64() != 1 {
		t.Errorf("shortest on cycle: count = %v, infinite = %v; want 1, false", count, infinite)
	}
	// With a+ the shortest v0→v0 path is the full 3-cycle.
	r = shortestOf(g, rpq.MustParse("a+"), 0, 0)
	paths := first(r, 10)
	if len(paths) != 1 || paths[0].Len() != 3 {
		t.Errorf("shortest a+ cycle: %d paths", len(paths))
	}
}

func TestShortestEmptyWhenUnreachable(t *testing.T) {
	g := gen.APath(2, "a")
	r := shortestOf(g, rpq.MustParse("a"), g.MustNode("v2"), g.MustNode("v0"))
	count, infinite := r.Cardinality()
	if infinite || count.Sign() != 0 {
		t.Errorf("unreachable: count = %v, infinite = %v", count, infinite)
	}
}

// TestSPathsAgreesWithEval cross-checks PMR enumeration and counting
// against the anchored path evaluator in mode all on random graphs: the
// paths of length ≤ 4 agree, and where the set is finite its cardinality is
// the number of paths the evaluator enumerates.
func TestSPathsAgreesWithEval(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		g := gen.Random(4, 6, []string{"a", "b"}, int64(trial)*101+9)
		for _, text := range []string{"(a|b) a*", "a*", "(a b)*", "a b", "(a|b) (a|b)?"} {
			e := rpq.MustParse(text)
			ae := lrpq.FromRPQ(e)
			for src := 0; src < g.NumNodes(); src++ {
				for dst := 0; dst < g.NumNodes(); dst++ {
					r := allOf(g, e, src, dst)
					want := paths(t, g, ae, src, dst, 4)
					// Every evaluated path must be contained in the PMR.
					for _, p := range want {
						if !r.Contains(p) {
							t.Fatalf("trial %d %s: path %s missing from PMR", trial, text, p.Format(g))
						}
					}
					// Every enumerated PMR path of length ≤ 4 must be in want.
					wantKeys := map[string]bool{}
					for _, p := range want {
						wantKeys[p.Key()] = true
					}
					it := r.Iterate(nil)
					for p, ok, _ := it.Next(); ok && p.Len() <= 4; p, ok, _ = it.Next() {
						if !wantKeys[p.Key()] {
							t.Fatalf("trial %d %s: PMR enumerated spurious path %s", trial, text, p.Format(g))
						}
					}
					// A finite set: the evaluator finds as many paths as the
					// count, and none longer than the PMR's longest.
					if count, infinite := r.Cardinality(); !infinite && count.Sign() > 0 {
						ps := first(r, int(count.Int64()))
						all := paths(t, g, ae, src, dst, ps[len(ps)-1].Len()+1)
						if count.Int64() != int64(len(all)) {
							t.Fatalf("trial %d %s %d→%d: cardinality %v, enumerated %d", trial, text, src, dst, count, len(all))
						}
					}
				}
			}
		}
	}
}

// allOf is FromKernel on the product of g and e, without a meter.
func allOf(g *graph.Graph, e rpq.Expr, src, dst int) *PMR {
	r, err := FromKernel(eval.CompileProduct(g, e).Kernel(), src, dst, nil)
	if err != nil {
		panic(err) // impossible without a meter
	}
	return r
}

// shortestOf is ShortestFromKernel on the product of g and e, without a
// meter.
func shortestOf(g *graph.Graph, e rpq.Expr, src, dst int) *PMR {
	r, err := ShortestFromKernel(eval.CompileProduct(g, e).Kernel(), src, dst, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// first is Enumerate without a meter.
func first(r *PMR, limit int) []gpath.Path {
	ps, err := r.Enumerate(limit, nil)
	if err != nil {
		panic(err)
	}
	return ps
}

// paths is every path from src to dst of length ≤ maxLen matching e, by
// the anchored evaluator in mode all.
func paths(t *testing.T, g *graph.Graph, e lrpq.Expr, src, dst, maxLen int) []gpath.Path {
	t.Helper()
	pbs, err := lrpq.EvalBetween(g, e, src, dst, eval.All, lrpq.Options{MaxLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]gpath.Path, len(pbs))
	for i, pb := range pbs {
		out[i] = pb.Path
	}
	return out
}

func TestContainsRejectsEmptyAndForeign(t *testing.T) {
	g := gen.APath(1, "a")
	r := allOf(g, rpq.MustParse("a"), g.MustNode("v0"), g.MustNode("v1"))
	if r.Contains(gpath.Path{}) {
		t.Error("empty path is not in L(a)")
	}
	if !r.Contains(gpath.Triple(g, g.MustEdge("e1"))) {
		t.Error("the single a-edge path must be contained")
	}
	if r.Contains(gpath.OfNode(g.MustNode("v0"))) {
		t.Error("zero-length path not in L(a)")
	}
}

func TestIterator(t *testing.T) {
	g := gen.Cycle(3, "a")
	r := allOf(g, rpq.MustParse("a*"), 0, 0)
	it := r.Iterate(nil)
	var lengths []int
	for i := 0; i < 4; i++ {
		p, ok, _ := it.Next()
		if !ok {
			t.Fatalf("iterator ended early at %d", i)
		}
		lengths = append(lengths, p.Len())
	}
	for i, want := range []int{0, 3, 6, 9} {
		if lengths[i] != want {
			t.Errorf("lengths[%d] = %d, want %d", i, lengths[i], want)
		}
	}
	// Finite language: iterator terminates.
	f := gen.Figure5(3)
	rf := allOf(f, rpq.MustParse("a*"), f.MustNode("s"), f.MustNode("t"))
	itf := rf.Iterate(nil)
	count := 0
	for {
		if _, ok, _ := itf.Next(); !ok {
			break
		}
		count++
	}
	if count != 8 {
		t.Errorf("finite iteration produced %d paths, want 8", count)
	}
	// Iterator agrees with Enumerate.
	want := first(rf, 8)
	itf2 := rf.Iterate(nil)
	for i := 0; i < len(want); i++ {
		p, ok, _ := itf2.Next()
		if !ok || p.Key() != want[i].Key() {
			t.Fatalf("iterator diverges from Enumerate at %d", i)
		}
	}
}

func TestIteratorEmpty(t *testing.T) {
	g := gen.APath(2, "a")
	r := allOf(g, rpq.MustParse("b"), 0, 1)
	if _, ok, _ := r.Iterate(nil).Next(); ok {
		t.Error("empty language should yield nothing")
	}
}

func TestUnionPMR(t *testing.T) {
	g := gen.BankEdgeLabeled()
	a3, a5, a4 := g.MustNode("a3"), g.MustNode("a5"), g.MustNode("a4")
	r1 := allOf(g, rpq.MustParse("Transfer"), a3, a5)
	r2 := allOf(g, rpq.MustParse("Transfer"), a3, a4)
	u, err := Union(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	count, infinite := u.Cardinality()
	if infinite {
		t.Fatal("finite union misreported")
	}
	// a3→a5 has 1 direct transfer (t7); a3→a4 has 1 (t6): union = 2.
	if count.Int64() != 2 {
		t.Errorf("union cardinality = %v, want 2", count)
	}
	paths := first(u, 10)
	if len(paths) != 2 {
		t.Errorf("union enumerated %d", len(paths))
	}
	// Union over different graphs is rejected.
	other := gen.APath(1, "a")
	r3 := allOf(other, rpq.MustParse("a"), 0, 1)
	if _, err := Union(r1, r3); err == nil {
		t.Error("cross-graph union should fail")
	}
}

// TestEnumerateAllocsLinear: a path of n edges is built once, its 2n+1
// objects in one slice, and the walk to it keeps one entry per partial
// path, so Enumerate(1) of a* along a 400-edge path allocates a number of
// objects linear in 400 with a small constant — not one path copy per
// edge.
func TestEnumerateAllocsLinear(t *testing.T) {
	const n = 400
	g := gen.APath(n, "a")
	r := allOf(g, rpq.MustParse("a*"), g.MustNode("v0"), g.MustNode("v400"))
	allocs := testing.AllocsPerRun(5, func() {
		if ps := first(r, 1); len(ps) != 1 || ps[0].Len() != n {
			t.Fatalf("enumerated %d paths", len(ps))
		}
	})
	t.Logf("Enumerate(1): %.0f allocations", allocs)
	if allocs >= 2*n {
		t.Errorf("Enumerate(1) of a %d-edge path allocates %.0f objects, want < %d", n, allocs, 2*n)
	}
}

// TestCardinalityCountsPathsNotRuns: for an ambiguous expression one path
// has several accepting runs, and the count is of paths. On a 3-edge
// a-path, a a* | a* a matches v0→v3 along one path by two runs.
func TestCardinalityCountsPathsNotRuns(t *testing.T) {
	g := gen.APath(3, "a")
	r := allOf(g, rpq.MustParse("a a* | a* a"), g.MustNode("v0"), g.MustNode("v3"))
	if count, infinite := r.Cardinality(); infinite || count.Int64() != 1 {
		t.Fatalf("Cardinality = %v (infinite %v), want 1", count, infinite)
	}
}

// TestCardinalityMatchesEnumerateAmbiguous: on small random graphs, for
// ambiguous expressions with finite path sets, Cardinality is the number
// of paths Enumerate lists.
func TestCardinalityMatchesEnumerateAmbiguous(t *testing.T) {
	exprs := []string{"a? a? a", "(a | b) (a | b) | a a", "a{1,2} a{1,2}", "(a | a b) (b | b a)?", "a b? | a (b | c)?"}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(7, 18, []string{"a", "b", "c"}, int64(trial)*43+11)
		for _, text := range exprs {
			e := rpq.MustParse(text)
			for src := 0; src < g.NumNodes(); src++ {
				for dst := 0; dst < g.NumNodes(); dst++ {
					r := allOf(g, e, src, dst)
					count, infinite := r.Cardinality()
					if infinite {
						t.Fatalf("trial %d %s %d→%d: a bounded expression reads infinite", trial, text, src, dst)
					}
					if n := len(first(r, 1<<20)); count.Int64() != int64(n) {
						t.Fatalf("trial %d %s %d→%d: cardinality %v, Enumerate lists %d", trial, text, src, dst, count, n)
					}
				}
			}
		}
	}
}
