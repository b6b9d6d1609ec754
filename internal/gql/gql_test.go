package gql

import (
	"errors"
	"testing"

	"graphquery/internal/coregql"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
)

// aPath2 is a 2-edge a-labeled path u → v → w.
func aPath2(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).AddNode("w", "", nil).
		AddEdge("e1", "a", "u", "v", nil).
		AddEdge("e2", "a", "v", "w", nil).
		MustBuild()
}

// selfLoop is a single node with an a-labeled self-loop.
func selfLoop(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.NewBuilder().
		AddNode("n", "", nil).
		AddEdge("loop", "a", "n", "n", nil).
		MustBuild()
}

// TestExample1 reproduces Example 1: the pattern
// (x)(()-[z:a]->()){2}(y) binds z to a list of two edges, while the
// repeated-z variants join and thus match only self-loops.
func TestExample1(t *testing.T) {
	g := aPath2(t)
	unit := Concat(AnonNode(), EdgeL("z", "a"), AnonNode())

	// (x) ( ()-[z:a]->() ){2} (y)
	grouped := Concat(Node("x"), Repeat(unit, 2, 2), Node("y"))
	ms, err := EvalPattern(g, grouped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, m := range ms {
		if m.Path.Len() == 2 {
			full++
			z := m.Binding["z"]
			if !z.IsList || len(z.List) != 2 {
				t.Errorf("z should be a 2-edge list, got %v", z.Format(g))
			}
		}
	}
	if full != 1 {
		t.Errorf("grouped pattern matched %d full paths, want 1", full)
	}

	// (x) ()-[z:a]->() ()-[z:a]->() (y): both z occurrences join.
	joined := Concat(Node("x"), unit, unit, Node("y"))
	ms, err = EvalPattern(g, joined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Path.Len() == 2 {
			t.Error("repeated z must not match a 2-edge path (join forces equality)")
		}
	}
	// On a self-loop, the joined variant does match (the paper: "both will
	// only match a self-loop").
	loop := selfLoop(t)
	ms, err = EvalPattern(loop, joined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Error("repeated z should match the self-loop")
	}

	// (x) ()-[z:a]->() ()-[z1:a]->() (y): separate bindings for z and z1.
	separate := Concat(Node("x"),
		Concat(AnonNode(), EdgeL("z", "a"), AnonNode()),
		Concat(AnonNode(), EdgeL("z1", "a"), AnonNode()),
		Node("y"))
	ms, err = EvalPattern(g, separate, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full = 0
	for _, m := range ms {
		if m.Path.Len() == 2 {
			full++
			if m.Binding["z"].IsList || m.Binding["z1"].IsList {
				t.Error("z and z1 should be singletons")
			}
			if m.Binding["z"].One == m.Binding["z1"].One {
				t.Error("z and z1 should bind different edges")
			}
		}
	}
	if full != 1 {
		t.Errorf("separate variant matched %d full paths, want 1", full)
	}
}

// TestExample2 reproduces Example 2's role flip: inside one iteration, the
// two occurrences of x join (requiring an a-self-loop); under the star, x
// becomes a group variable collecting the visited nodes.
func TestExample2(t *testing.T) {
	// Graph: two nodes with self-loops connected by an a-edge, plus one
	// node without a self-loop.
	g := graph.NewBuilder().
		AddNode("n1", "", nil).AddNode("n2", "", nil).AddNode("n3", "", nil).
		AddEdge("l1", "a", "n1", "n1", nil).
		AddEdge("l2", "a", "n2", "n2", nil).
		AddEdge("c12", "a", "n1", "n2", nil).
		AddEdge("c23", "a", "n2", "n3", nil).
		MustBuild()
	// Iteration unit: (x)-[:a]->(x)-[:a]-> — a node with a self-loop
	// followed by a forward a-edge.
	unit := Concat(Node("x"), AnonEdgeL("a"), Node("x"), AnonEdgeL("a"))
	star := Repeat(unit, 2, 2)
	ms, err := EvalPattern(g, star, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expect a match collecting x = list(n1, n2): n1 self-loop, edge to n2,
	// n2 self-loop, edge to n3.
	found := false
	for _, m := range ms {
		x := m.Binding["x"]
		if x.IsList && len(x.List) == 2 &&
			x.List[0] == graph.MakeNodeObject(g.MustNode("n1")) &&
			x.List[1] == graph.MakeNodeObject(g.MustNode("n2")) {
			found = true
		}
	}
	if !found {
		t.Error("expected x ↦ list(n1, n2) via self-loop joins inside iterations")
	}
	// n3 has no self-loop, so no match collects it.
	for _, m := range ms {
		for _, o := range m.Binding["x"].List {
			if o == graph.MakeNodeObject(g.MustNode("n3")) {
				t.Error("n3 has no self-loop and must not appear in x")
			}
		}
	}
}

func TestUnionPartialBindings(t *testing.T) {
	// ((x) + -y->): GQL allows different variables per branch.
	g := aPath2(t)
	ms, err := EvalPattern(g, Union(Node("x"), Edge("y")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawX, sawY := false, false
	for _, m := range ms {
		_, hasX := m.Binding["x"]
		_, hasY := m.Binding["y"]
		if hasX && !hasY {
			sawX = true
		}
		if hasY && !hasX {
			sawY = true
		}
	}
	if !sawX || !sawY {
		t.Error("union should produce partial bindings with domains {x} and {y}")
	}
}

func TestWhereCondition(t *testing.T) {
	g := gen.BankProperty()
	// (x:Account WHERE x.isBlocked = 'yes')
	p := Where(NodeL("x", "Account"),
		coregql.CmpConst("x", "isBlocked", graph.OpEq, graph.Str("yes")))
	ms, err := EvalPattern(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("blocked accounts = %d, want 2", len(ms))
	}
}

func TestErrUnboundedAndMixed(t *testing.T) {
	g := aPath2(t)
	if _, err := EvalPattern(g, Star(AnonEdge()), Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
	// z as group (from a star) concatenated with z as singleton: mixed.
	mixed := Concat(Repeat(Concat(AnonNode(), Edge("z"), AnonNode()), 1, 1), // z becomes a list
		Concat(AnonNode(), Edge("z"), AnonNode()))
	if _, err := EvalPattern(g, mixed, Options{}); !errors.Is(err, ErrMixedBinding) {
		t.Errorf("err = %v, want ErrMixedBinding", err)
	}
}

// TestExceptWorkaround reproduces the Section 5.2 complement trick: all
// paths minus those with a non-increasing consecutive edge pair equals the
// increasing-edge paths.
func TestExceptWorkaround(t *testing.T) {
	g := gen.DateEdgePath("a", []int64{1, 2, 3})
	walk := Concat(Node("x"), Star(Concat(AnonNode(), AnonEdge(), AnonNode())), Node("y"))
	all, err := MatchPaths(g, walk, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	// π″: some consecutive pair with u.k ≥ v.k.
	bad := Concat(Node("x"),
		Star(Concat(AnonNode(), AnonEdge(), AnonNode())),
		Where(Concat(AnonNode(), Edge("u"), AnonNode(), Edge("v"), AnonNode()),
			coregql.Cmp("u", "k", graph.OpGe, "v", "k")),
		Star(Concat(AnonNode(), AnonEdge(), AnonNode())),
		Node("y"))
	badPaths, err := MatchPaths(g, bad, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc := Except(all, badPaths)
	// On the increasing 1,2,3 path every subpath is increasing: nothing
	// subtracted.
	if len(inc) != len(all) || len(badPaths) != 0 {
		t.Errorf("increasing graph: |all| = %d, |bad| = %d", len(all), len(badPaths))
	}
	// On 3,4,1,2 the full path must be subtracted.
	g2 := gen.DateEdgePath("a", []int64{3, 4, 1, 2})
	all2, _ := MatchPaths(g2, walk, Options{MaxLen: 5})
	bad2, _ := MatchPaths(g2, bad, Options{MaxLen: 5})
	inc2 := Except(all2, bad2)
	for _, p := range inc2 {
		if p.Len() == 4 {
			t.Error("the full 3,4,1,2 path is not increasing and must be subtracted")
		}
	}
	// But its increasing sub-paths (e.g. 3,4) survive.
	has := false
	for _, p := range inc2 {
		if p.Len() == 2 {
			if s, _ := p.Src(g2); s == g2.MustNode("v0") {
				has = true
			}
		}
	}
	if !has {
		t.Error("the increasing prefix 3,4 should survive the subtraction")
	}
}

// TestReduceIncreasing checks the reduce-based increasing-edge-values query
// of Section 5.2 ("Turning to Lists for Help").
func TestReduceIncreasing(t *testing.T) {
	up := gen.DateEdgePath("a", []int64{1, 2, 3, 4})
	walk := Concat(Node("x"), Star(Concat(AnonNode(), AnonEdge(), AnonNode())), Node("y"))
	paths, err := MatchPaths(up, walk, Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc := FilterPaths(paths, func(p gpath.Path) bool {
		return IncreasingProp(up, "k", EdgesOf(p))
	})
	// All subpaths of an increasing path are increasing: C(5,2)=10 nonempty
	// plus 5 empty paths = 15.
	if len(inc) != 15 {
		t.Errorf("increasing paths = %d, want 15", len(inc))
	}
	down := gen.DateEdgePath("a", []int64{3, 4, 1, 2})
	paths2, _ := MatchPaths(down, walk, Options{MaxLen: 4})
	inc2 := FilterPaths(paths2, func(p gpath.Path) bool {
		return IncreasingProp(down, "k", EdgesOf(p))
	})
	for _, p := range inc2 {
		if p.Len() == 4 {
			t.Error("3,4,1,2 must fail the reduce-based filter")
		}
	}
}

// TestReduceSubsetSum reproduces the Section 5.2 subset-sum encoding: a
// path with Σk = target exists iff some subset of the weights sums to it.
func TestReduceSubsetSum(t *testing.T) {
	weights := []int64{3, 5, 7, 11}
	g := gen.SubsetSumChain(weights)
	walk := Concat(Node("x"), Star(Concat(AnonNode(), AnonEdge(), AnonNode())), Node("y"))
	paths, err := MatchPaths(g, walk, Options{MaxLen: len(weights)})
	if err != nil {
		t.Fatal(err)
	}
	// Keep only full-length v0→v4 paths (one edge per stage).
	full := FilterPaths(paths, func(p gpath.Path) bool { return p.Len() == len(weights) })
	hasSum := func(target int64) bool {
		for _, p := range full {
			if v, _ := SumProp(g, "k", EdgesOf(p)).AsInt(); v == target {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		target int64
		want   bool
	}{
		{0, true},   // empty subset
		{3, true},   // {3}
		{8, true},   // {3,5}
		{15, true},  // {3,5,7}
		{26, true},  // all
		{4, false},  // impossible
		{27, false}, // too big
		{13, false}, // 13 = 3+5+... no: 3+5=8, 3+7=10, 5+7=12, 3+11=14 → no
	} {
		if got := hasSum(tc.target); got != tc.want {
			t.Errorf("subset sum %d = %v, want %v", tc.target, got, tc.want)
		}
	}
}

// TestQuadraticOrderOfOperations reproduces the Section 5.2 example where
// the two orders of applying shortest and the reduce condition disagree.
func TestQuadraticOrderOfOperations(t *testing.T) {
	// Node u with a=1, b=-5, c=6 (roots 2 and 3) and a k=1 self-loop.
	g := graph.NewBuilder().
		AddNode("u", "l", graph.Props{
			"a": graph.Int(1), "b": graph.Int(-5), "c": graph.Int(6)}).
		AddEdge("loop", "t", "u", "u", graph.Props{"k": graph.Int(1)}).
		MustBuild()
	walk := Concat(NodeL("", "l"), Repeat(Concat(AnonNode(), AnonEdge(), AnonNode()), 1, -1), NodeL("x", "l"))
	paths, err := MatchPaths(g, walk, Options{MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	cond := func(p gpath.Path) bool {
		s, _ := SumProp(g, "k", EdgesOf(p)).AsInt()
		// x.a·s² + x.b·s + x.c = 0 with the u properties.
		return 1*s*s-5*s+6 == 0
	}
	after := ShortestThenFilter(g, paths, cond)
	if len(after) != 0 {
		t.Errorf("condition-after-shortest: the length-1 loop fails 1-5+6≠0; got %d paths", len(after))
	}
	before := FilterThenShortest(g, paths, cond)
	if len(before) != 1 || before[0].Len() != 2 {
		t.Errorf("shortest-after-condition: want the length-2 path (root 2), got %d paths", len(before))
	}
}

// TestForAllSegments reproduces the Section 5.2 ∀-condition: consecutive
// edge pairs must have increasing k.
func TestForAllSegments(t *testing.T) {
	inner := Concat(Edge("u"), AnonNode(), Edge("v"))
	theta := coregql.Cmp("u", "k", graph.OpLt, "v", "k")

	up := gen.DateEdgePath("a", []int64{1, 2, 3, 4})
	walk := Concat(Node("x"), Star(Concat(AnonNode(), AnonEdge(), AnonNode())), Node("y"))
	paths, _ := MatchPaths(up, walk, Options{MaxLen: 4})
	keep, err := FilterForAll(up, paths, inner, theta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != len(paths) {
		t.Errorf("all subpaths of the increasing path satisfy ∀: %d vs %d", len(keep), len(paths))
	}

	down := gen.DateEdgePath("a", []int64{3, 4, 1, 2})
	paths2, _ := MatchPaths(down, walk, Options{MaxLen: 4})
	keep2, err := FilterForAll(down, paths2, inner, theta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range keep2 {
		if p.Len() == 4 {
			t.Error("3,4,1,2 has the non-increasing pair (4,1) and must be dropped")
		}
	}
	// Increasing segments (3,4) and (1,2) survive.
	count2 := 0
	for _, p := range keep2 {
		if p.Len() == 2 {
			count2++
		}
	}
	if count2 != 2 {
		t.Errorf("surviving 2-edge segments = %d, want 2", count2)
	}
}

// TestForAllAllDistinct is the NP-hard variant: all node k-values along the
// path must be pairwise distinct.
func TestForAllAllDistinct(t *testing.T) {
	// (u) →⁺ (v): node pairs at distance ≥ 1 (with →*, the zero-length
	// match u = v would falsify u.k ≠ v.k on every path).
	inner := Concat(Node("u"), Repeat(Concat(AnonNode(), AnonEdge(), AnonNode()), 1, -1), Node("v"))
	theta := coregql.Cmp("u", "k", graph.OpNe, "v", "k")
	g := gen.DateNodePath("a", []int64{1, 2, 1}) // nodes v0,v1,v2 with k=1,2,1
	walk := Concat(Node("x"), Star(Concat(AnonNode(), AnonEdge(), AnonNode())), Node("y"))
	paths, _ := MatchPaths(g, walk, Options{MaxLen: 3})
	keep, err := FilterForAll(g, paths, inner, theta, Options{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range keep {
		if p.Len() == 2 {
			t.Error("the 2-edge path repeats k=1 and must be dropped")
		}
	}
	// 1-edge subpaths (k=1,2 or k=2,1) survive.
	oneEdge := 0
	for _, p := range keep {
		if p.Len() == 1 {
			oneEdge++
		}
	}
	if oneEdge != 2 {
		t.Errorf("surviving 1-edge paths = %d, want 2", oneEdge)
	}
}

func TestForAllRejectsNonNodePaths(t *testing.T) {
	g := gen.APath(2, "a")
	edgePath := gpath.OfEdge(g.MustEdge("e1"))
	_, err := ForAllOnPath(g, edgePath, Concat(Edge("u"), AnonNode(), Edge("v")),
		coregql.Cmp("u", "k", graph.OpLt, "v", "k"), Options{})
	if err == nil {
		t.Error("∀ on a non node-to-node path should error")
	}
}

func TestReduceBasics(t *testing.T) {
	g := gen.SubsetSumChain([]int64{2, 4})
	iota := func(o graph.Object) graph.Value {
		v, _ := g.Prop(o, "k")
		return v
	}
	f := func(o graph.Object, acc graph.Value) graph.Value {
		a, _ := iota(o).AsInt()
		b, _ := acc.AsInt()
		return graph.Int(a + b)
	}
	if v := Reduce(graph.Int(0), iota, f, nil); !v.Equal(graph.Int(0)) {
		t.Errorf("empty reduce = %v", v)
	}
	w1 := graph.MakeEdgeObject(g.MustEdge("w1"))
	if v := Reduce(graph.Int(0), iota, f, []graph.Object{w1}); !v.Equal(graph.Int(2)) {
		t.Errorf("singleton reduce = %v", v)
	}
	w2 := graph.MakeEdgeObject(g.MustEdge("w2"))
	if v := Reduce(graph.Int(0), iota, f, []graph.Object{w1, w2}); !v.Equal(graph.Int(6)) {
		t.Errorf("pair reduce = %v", v)
	}
}

func TestNodesEdgesOf(t *testing.T) {
	g := gen.APath(2, "a")
	p, _ := gpath.New(g,
		graph.MakeNodeObject(g.MustNode("v0")),
		graph.MakeEdgeObject(g.MustEdge("e1")),
		graph.MakeNodeObject(g.MustNode("v1")))
	if len(NodesOf(p)) != 2 || len(EdgesOf(p)) != 1 {
		t.Error("NodesOf/EdgesOf sizes wrong")
	}
}

// TestErrEmptyIteration: an unbounded repetition whose body matches a
// zero-length path that binds a variable has infinitely many matches — each
// iteration lengthens a group list, never the path — and is refused
// whatever MaxLen is — by Pairs too, though (x)* is regular and its pairs
// would fit the kernel. Bodies that bind nothing on a zero-length match,
// and bounded repetitions, still evaluate, and CoreGQL, which erases what a
// repetition binds, still evaluates the same texts.
func TestErrEmptyIteration(t *testing.T) {
	g := aPath2(t)
	for _, text := range []string{"(x)*", "((x) | -[e]->)*", "((x){2})*", "(x)+", "(y)((x)(()-->())?)*"} {
		if _, err := EvalPattern(g, MustParsePattern(text), Options{MaxLen: 3}); !errors.Is(err, ErrEmptyIteration) {
			t.Errorf("%s: err = %v, want ErrEmptyIteration", text, err)
		}
		if _, err := Pairs(g, MustParsePattern(text), eval.Options{MaxLen: 3}); !errors.Is(err, ErrEmptyIteration) {
			t.Errorf("%s: Pairs err = %v, want ErrEmptyIteration", text, err)
		}
		core, err := ToCore(MustParsePattern(text))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coregql.EvalPattern(g, core, coregql.Options{MaxLen: 3}); err != nil && text != "((x) | -[e]->)*" {
			t.Errorf("%s as CoreGQL: %v", text, err)
		}
	}
	for _, text := range []string{"(())*", "(() | -[e]->)*", "((x)-->(y))*", "(x){3}", "((x)-[e]->)*"} {
		if _, err := EvalPattern(g, MustParsePattern(text), Options{MaxLen: 3}); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
}
