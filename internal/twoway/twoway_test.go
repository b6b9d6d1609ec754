package twoway

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

func TestParseAndString(t *testing.T) {
	tests := []struct{ in, want string }{
		{"a", "a"},
		{"~a", "~a"},
		{"~a b", "~a b"},
		{"(~a | b)*", "(~a | b)*"},
		{"~_", "~_"},
		{"~!{a,b}", "~!{a,b}"},
		{"a{2,3}", "a{2,3}"},
		{"~a+", "~a+"},
		// Read like RPQ text: quoted labels, '.' between factors, and
		// repetition counts past the int range saturating (the position
		// bound then refuses them; TestParseReadsLikeRPQ).
		{"'has-part'", "'has-part'"},
		{"~'has part' b", "~'has part' b"},
		{"a.b", "a b"},
		{"a{18446744073709551617}", "a{9223372036854775807}"},
		// Characters only another tier defines are one-character labels.
		{"a^b", "a '^' b"},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q) = %q, want %q", tc.in, got, tc.want)
		}
		e2, err := Parse(e.String())
		if err != nil || e2.String() != e.String() {
			t.Errorf("round trip %q failed: %v", e.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "~", "~(a)", "a{2,1}", "(a", "|", "!{", "!a", "~!a"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

// TestParseReadsLikeRPQ: a 2RPQ without '~' is read exactly as the RPQ of
// the same text — the two share one lexer and parser — so the four texts
// the 2RPQ lexer once read apart from rpq.Parse now read alike.
func TestParseReadsLikeRPQ(t *testing.T) {
	for _, in := range []string{"'has-part'", "a.b", "!a", "a{18446744073709551617}", "'a b'* | !{'c,d',e}", "a\vb"} {
		want, werr := rpq.Parse(in)
		got, err := Parse(in)
		if (err != nil) != (werr != nil) {
			t.Errorf("Parse(%q): error %v, rpq.Parse: %v", in, err, werr)
			continue
		}
		if err != nil {
			continue
		}
		if got.String() != want.String() {
			t.Errorf("Parse(%q) = %q, rpq.Parse gives %q", in, got, want)
		}
		if (rpq.CheckPositions(got) != nil) != (rpq.CheckPositions(want) != nil) {
			t.Errorf("%q: the position bound treats the 2RPQ and the RPQ differently", in)
		}
	}
	if err := rpq.CheckPositions(MustParse("a{18446744073709551617}")); !errors.Is(err, rpq.ErrTooLarge) {
		t.Errorf("a{18446744073709551617}: %v, want the position bound's refusal", err)
	}
}

// TestCoOwnedAccounts: owner·~owner connects accounts sharing an owner —
// the classic 2RPQ example, on the Figure 2 graph (Megan owns a1 and a2).
func TestCoOwnedAccounts(t *testing.T) {
	g := gen.BankEdgeLabeled()
	pairs := Pairs(g, MustParse("owner ~owner"))
	set := map[[2]graph.NodeID]bool{}
	for _, pr := range pairs {
		set[[2]graph.NodeID{g.Node(pr[0]).ID, g.Node(pr[1]).ID}] = true
	}
	if !set[[2]graph.NodeID{"a1", "a2"}] || !set[[2]graph.NodeID{"a2", "a1"}] {
		t.Errorf("a1 and a2 share Megan: %v", set)
	}
	// Every account is trivially co-owned with itself.
	for _, a := range []graph.NodeID{"a1", "a2", "a3", "a4", "a5", "a6"} {
		if !set[[2]graph.NodeID{a, a}] {
			t.Errorf("(%s,%s) missing", a, a)
		}
	}
	// Accounts of different owners are not connected.
	if set[[2]graph.NodeID{"a1", "a3"}] {
		t.Error("a1 (Megan) and a3 (Mike) are not co-owned")
	}
}

// reachFrom returns all v with (src, v) ∈ ⟦e⟧_G, sorted: one kernel sweep.
func reachFrom(g *graph.Graph, e Expr, src int) []int {
	kern := Kernel(g, e, nil)
	vs, _ := kern.Sweep(src, kern.NewScratch(), nil, false) // nil meter: cannot fail
	return vs
}

func TestInverseReachability(t *testing.T) {
	// On a directed path, ~a walks backwards.
	g := gen.APath(3, "a")
	v3 := g.MustNode("v3")
	reach := reachFrom(g, MustParse("~a+"), v3)
	if len(reach) != 3 {
		t.Errorf("backward reach from v3 = %d nodes, want 3", len(reach))
	}
	// Mixed: (a | ~a)* reaches everything on a connected graph.
	reach = reachFrom(g, MustParse("(a | ~a)*"), g.MustNode("v1"))
	if len(reach) != 4 {
		t.Errorf("undirected closure = %d nodes, want 4", len(reach))
	}
}

func TestCheckAndWitness(t *testing.T) {
	g := gen.BankEdgeLabeled()
	mike, megan := g.MustNode("Mike"), g.MustNode("Megan")
	// Person-to-person: ~owner walks from Mike to his account, Transfer+
	// to one of Megan's accounts, owner up to Megan.
	e := MustParse("~owner Transfer+ owner")
	if !slices.Contains(reachFrom(g, e, mike), megan) {
		t.Fatal("Mike should connect to Megan through transfers")
	}
	seq, ok := Witness(g, e, mike, megan)
	if !ok || len(seq) < 4 {
		t.Fatalf("witness = %v, %v", seq, ok)
	}
	if seq[0] != mike || seq[len(seq)-1] != megan {
		t.Error("witness endpoints wrong")
	}
	if slices.Contains(reachFrom(g, MustParse("owner"), mike), megan) {
		t.Error("no forward owner edge from Mike")
	}
}

// TestForwardOnlyAgreesWithRPQ: without inverse atoms, 2RPQ evaluation
// coincides with the one-way evaluator.
func TestForwardOnlyAgreesWithRPQ(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g := gen.Random(5, 9, []string{"a", "b"}, int64(trial)*7+3)
		for _, q := range []string{"a*", "a b", "(a | b)+", "a{2,3}"} {
			got := Pairs(g, MustParse(q))
			want := eval.Pairs(g, rpq.MustParse(q))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %q: 2RPQ %v vs RPQ %v", trial, q, got, want)
			}
		}
	}
}

// TestInverseAgainstReversedGraph: evaluating ~a on G equals evaluating a
// on the reversed graph.
func TestInverseAgainstReversedGraph(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g := gen.Random(5, 9, []string{"a"}, int64(trial)*11+5)
		rev := reverse(g)
		got := Pairs(g, MustParse("~a+"))
		want := eval.Pairs(rev, rpq.MustParse("a+"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ~a+ on G %v vs a+ on Gᵀ %v", trial, got, want)
		}
	}
}

func reverse(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(i)
		b.AddNode(n.ID, n.Label, n.Props)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		b.AddEdge(e.ID, e.Label, g.Node(e.Tgt).ID, g.Node(e.Src).ID, e.Props)
	}
	return b.MustBuild()
}

func TestWildcardInverse(t *testing.T) {
	g := gen.BankEdgeLabeled()
	// ~_ from Megan: anything pointing at Megan (owner edges from a1, a2).
	reach := reachFrom(g, MustParse("~_"), g.MustNode("Megan"))
	if len(reach) != 2 {
		t.Errorf("~_ from Megan = %d, want 2 (a1, a2)", len(reach))
	}
	// ~!{owner} from Megan: nothing (only owner edges point at people).
	reach = reachFrom(g, MustParse("~!{owner}"), g.MustNode("Megan"))
	if len(reach) != 0 {
		t.Errorf("~!{owner} from Megan = %d, want 0", len(reach))
	}
}
