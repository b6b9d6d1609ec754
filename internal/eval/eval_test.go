package eval

import (
	"slices"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

func TestPairsTransferStar(t *testing.T) {
	// Example 12: Transfer* on the Figure 2 graph returns all of
	// {a1..a6} × {a1..a6} (the accounts are strongly connected).
	g := gen.BankEdgeLabeled()
	pairs := Pairs(g, rpq.MustParse("Transfer*"))
	set := map[[2]int]bool{}
	for _, pr := range pairs {
		set[pr] = true
	}
	accounts := []graph.NodeID{"a1", "a2", "a3", "a4", "a5", "a6"}
	for _, u := range accounts {
		for _, v := range accounts {
			if !set[[2]int{g.MustNode(u), g.MustNode(v)}] {
				t.Errorf("missing pair (%s,%s)", u, v)
			}
		}
	}
	// Restricted to account nodes, the answer is exactly the full square.
	isAccount := map[int]bool{}
	for _, a := range accounts {
		isAccount[g.MustNode(a)] = true
	}
	n := 0
	for pr := range set {
		if isAccount[pr[0]] && isAccount[pr[1]] {
			n++
		}
	}
	if n != 36 {
		t.Errorf("account pairs = %d, want 36", n)
	}
}

// TestCheckAndReachable asks ⟦R⟧_G about single pairs and single
// sources: membership of (src, dst) and the targets of src.
func TestCheckAndReachable(t *testing.T) {
	g := gen.BankEdgeLabeled()
	has := func(expr string, u, v graph.NodeID) bool {
		return slices.Contains(Pairs(g, rpq.MustParse(expr)), [2]int{g.MustNode(u), g.MustNode(v)})
	}
	if !has("Transfer", "a3", "a5") {
		t.Error("direct transfer a3→a5 (t7) exists")
	}
	if has("owner", "a3", "a5") {
		t.Error("no owner edge a3→a5")
	}
	// Example 13 (q2's path atom): Transfer·Transfer? reaches a5 from a4 in 2.
	if !has("Transfer Transfer?", "a4", "a5") {
		t.Error("a4 →t9→ a6 →t10→ a5 matches Transfer·Transfer?")
	}
	var reach []int
	for _, pr := range Pairs(g, rpq.MustParse("owner")) {
		if pr[0] == g.MustNode("a3") {
			reach = append(reach, pr[1])
		}
	}
	if len(reach) != 1 || reach[0] != g.MustNode("Mike") {
		t.Errorf("owner-reachable from a3 = %v, want [Mike]", reach)
	}
}

// TestSoundnessAndCompleteness cross-checks the product evaluation against a
// brute-force walk enumeration on small random graphs: a pair is in ⟦R⟧_G
// iff some walk between them has a label word R matches. The walks are cut
// where they meet a node in a state of the expression's DFA they met it in
// before — the extensions are the same — so every walk that matters is
// tried, and the two answers must be equal.
func TestSoundnessAndCompleteness(t *testing.T) {
	exprs := []string{"a*", "a b", "(a|b)+", "(a a)*", "!{a}*", "a _ b?"}
	for trial := 0; trial < 15; trial++ {
		g := gen.Random(4, 6, []string{"a", "b"}, int64(trial)*13+7)
		for _, es := range exprs {
			e := rpq.MustParse(es)
			dfa := rpq.Compile(e).Determinize()
			brute := map[[2]int]bool{}
			for u := 0; u < g.NumNodes(); u++ {
				met := map[[2]int]bool{}
				var walk func(cur, q int, word []string)
				walk = func(cur, q int, word []string) {
					if met[[2]int{cur, q}] {
						return
					}
					met[[2]int{cur, q}] = true
					if rpq.Matches(e, word) {
						brute[[2]int{u, cur}] = true
					}
					for _, ei := range g.Out(cur) {
						lab := g.Edge(ei).Label
						walk(g.Edge(ei).Tgt, dfa.Step(q, lab), append(word, lab))
					}
				}
				walk(u, dfa.Start, nil)
			}
			got := map[[2]int]bool{}
			for _, pr := range Pairs(g, e) {
				got[pr] = true
				if !brute[pr] {
					t.Fatalf("trial %d expr %s: pair %v has no matching walk", trial, es, pr)
				}
			}
			for pr := range brute {
				if !got[pr] {
					t.Fatalf("trial %d expr %s: missing pair %v", trial, es, pr)
				}
			}
		}
	}
}

func TestProductStateAccessors(t *testing.T) {
	g := gen.APath(2, "a")
	p := CompileProduct(g, rpq.MustParse("a a"))
	if p.NumStates() != g.NumNodes()*p.A.NumStates {
		t.Error("NumStates mismatch")
	}
	kern := p.Kernel()
	if kern.ID(kern.Unid(5)) != 5 {
		t.Error("id/unid roundtrip failed")
	}
	if len(kern.Succ(pg.State{Node: 0, State: p.A.Start})) == 0 {
		t.Error("expected successors from start")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{All: "all", Shortest: "shortest", Simple: "simple", Trail: "trail"} {
		if m.String() != want {
			t.Errorf("Mode.String() = %q, want %q", m.String(), want)
		}
		got, err := ParseMode(want)
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", want, got, err)
		}
	}
	if _, err := ParseMode("zigzag"); err == nil {
		t.Error("ParseMode should reject unknown modes")
	}
	if m, err := ParseMode(""); err != nil || m != All {
		t.Error("empty mode should default to all")
	}
}
