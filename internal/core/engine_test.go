package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/lrpq"
	"graphquery/internal/rpq"
)

func TestDetect(t *testing.T) {
	cases := map[string]QueryKind{
		"Transfer*":                     KindRPQ,
		"(Transfer^z)+":                 KindRPQ,
		"() [Transfer] ()":              KindDLRPQ,
		"(x := date)":                   KindDLRPQ,
		"(amount < 5)":                  KindDLRPQ,
		"q(x) :- Transfer(x, y)":        KindCRPQ,
		"q(z) :- shortest (a^z)*(x, y)": KindCRPQ,
	}
	for q, want := range cases {
		if got := Detect(q); got != want {
			t.Errorf("Detect(%q) = %v, want %v", q, got, want)
		}
	}
}

func TestEnginePairs(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	pairs, err := e.Pairs("owner")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 6 {
		t.Errorf("owner pairs = %d, want 6", len(pairs))
	}
	if _, err := e.Pairs("((("); err == nil {
		t.Error("bad RPQ should fail")
	}
}

func TestEnginePathsLRPQ(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	res, err := e.Paths("(Transfer^z)+", "a6", "a5", eval.Shortest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !strings.Contains(res[0].Format(e.Graph()), "t10") {
		t.Errorf("shortest a6→a5: %v", res)
	}
}

func TestEnginePathsDLRPQ(t *testing.T) {
	e := New(gen.BankProperty())
	res, err := e.Paths("() {[Transfer]()}* [Transfer][amount < 4500000] () {[Transfer]()}*",
		"a3", "a5", eval.Shortest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Path.Len() != 3 {
		t.Fatalf("E20 via engine: %d results", len(res))
	}
}

func TestEnginePathsErrors(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	if _, err := e.Paths("Transfer", "nope", "a5", eval.All); err == nil {
		t.Error("unknown src should fail")
	}
	if _, err := e.Paths("Transfer", "a3", "nope", eval.All); err == nil {
		t.Error("unknown dst should fail")
	}
	if _, err := e.Paths("q(x) :- a(x, y)", "a3", "a5", eval.All); err == nil {
		t.Error("CRPQ via Paths should fail")
	}
}

func TestEngineRows(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	res, err := e.Rows("q(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
	if _, err := e.Rows("not a query"); err == nil {
		t.Error("bad CRPQ should fail")
	}
}

func TestEngineRepresentation(t *testing.T) {
	g := gen.Figure5(10)
	e := New(g)
	r, err := e.Representation("a*", "s", "t", false)
	if err != nil {
		t.Fatal(err)
	}
	count, infinite := r.Cardinality()
	if infinite || count.Int64() != 1024 {
		t.Errorf("PMR cardinality = %v/%v, want 1024", count, infinite)
	}
	rs, err := e.Representation("a*", "s", "t", true)
	if err != nil {
		t.Fatal(err)
	}
	if c2, _ := rs.Cardinality(); c2.Int64() != 1024 {
		t.Errorf("shortest PMR cardinality = %v", c2)
	}
	if _, err := e.Representation("a*", "zzz", "t", false); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestEngineExplain(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	out, err := e.Explain("(((Transfer*)*)*)*")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simplified:") || !strings.Contains(out, "Transfer*") {
		t.Errorf("Explain output:\n%s", out)
	}
	if !strings.Contains(out, "unambiguous") {
		t.Errorf("Explain should report ambiguity:\n%s", out)
	}
	if _, err := e.Explain(")("); err == nil {
		t.Error("bad expression should fail")
	}
}

// TestF01Embeddings checks the Figure 1 language embeddings on a corpus:
// lifting an RPQ to an ℓ-RPQ preserves endpoint semantics.
func TestF01Embeddings(t *testing.T) {
	g := gen.BankEdgeLabeled()
	for _, q := range []string{"Transfer", "Transfer*", "Transfer Transfer?", "owner | isBlocked"} {
		re := rpq.MustParse(q)
		le := lrpq.FromRPQ(re)
		pairsRPQ := map[[2]int]bool{}
		for _, pr := range eval.Pairs(g, re) {
			pairsRPQ[pr] = true
		}
		// ℓ-RPQ evaluation between every pair must agree with membership.
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				pbs, err := lrpq.EvalBetween(g, le, u, v, eval.Shortest, lrpq.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if (len(pbs) > 0) != pairsRPQ[[2]int{u, v}] {
					t.Fatalf("embedding mismatch for %q at (%d,%d)", q, u, v)
				}
			}
		}
	}
}

func TestEngineProgramRows(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	res, err := e.ProgramRows(`
		Hop2(x, y) :- Transfer Transfer (x, y)
		q(y) :- Hop2(@a3, y)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("expected 2-hop results from a3")
	}
	if _, err := e.ProgramRows("not a program"); err == nil {
		t.Error("bad program should fail")
	}
}

func TestEngineTwoWayPairs(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	pairs, err := e.TwoWayPairs("owner ~owner")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range pairs {
		if pr[0] == "a1" && pr[1] == "a2" {
			found = true
		}
	}
	if !found {
		t.Error("co-owned pair (a1, a2) missing")
	}
	if _, err := e.TwoWayPairs("~~"); err == nil {
		t.Error("bad 2RPQ should fail")
	}
}

func TestEngineEstimate(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	est, actual, err := e.Estimate("Transfer")
	if err != nil {
		t.Fatal(err)
	}
	if actual != 9 { // 10 transfer edges, t2 ∥ t5 collapse to one pair
		t.Errorf("actual = %d, want 9", actual)
	}
	if est < 5 || est > 15 {
		t.Errorf("estimate = %v, expected near 10", est)
	}
	if _, _, err := e.Estimate("((("); err == nil {
		t.Error("bad query should fail")
	}
}

func TestEnginePathsRPQviaLRPQ(t *testing.T) {
	// Plain RPQ text through Paths: parsed as an ℓ-RPQ without variables.
	e := New(gen.BankEdgeLabeled())
	res, err := e.Paths("Transfer Transfer", "a3", "a4", eval.All)
	if err != nil {
		t.Fatal(err)
	}
	// Two results: one through each of the parallel edges t2 and t5.
	if len(res) != 2 {
		t.Fatalf("a3 →² a4: %d results, want 2", len(res))
	}
	got := map[string]bool{}
	for _, r := range res {
		got[r.Format(e.Graph())] = true
	}
	if !got["path(a3, t2, a2, t3, a4)"] || !got["path(a3, t5, a2, t3, a4)"] {
		t.Errorf("unexpected witnesses %v", got)
	}
}

func TestEngineGQLMatch(t *testing.T) {
	e := New(gen.APath(2, "a"))
	lines, err := e.GQLMatch("(x) (()-[z:a]->()){2} (y)")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "z=list(e1, e2)") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the grouped 2-edge match, got %v", lines)
	}
	if _, err := e.GQLMatch("-["); err == nil {
		t.Error("bad pattern should fail")
	}
}

// TestParseGQLPositionsBound: a served gql or coregql pattern whose
// skeleton unrolls past rpq.MaxPositions positions — node and edge atoms,
// repetitions unrolled, a condition's subpattern included — is refused
// before it is evaluated; a megabyte-long concatenation or union is refused
// by the parser at its 513th part, within 100ms.
func TestParseGQLPositionsBound(t *testing.T) {
	for _, text := range []string{"(()-[:a]->()){169}", strings.Repeat("-->", rpq.MaxPositions), "((x) WHERE x.k = 1){511}"} {
		if _, err := parseGQL(text); err != nil {
			t.Errorf("%.40q: %v", text, err)
		}
	}
	unrolls := func(n int) string { return fmt.Sprintf("it unrolls to %d automaton positions, the bound is 512", n) }
	row := "a row of 513 parts compiles to at least as many automaton positions, the bound is 512"
	for _, tc := range []struct {
		text, want string
	}{
		{"(()-[:a]->()){171}", unrolls(516)},
		{"(()-[:a]->()){4000}", unrolls(12003)},
		{"((x) WHERE x.k = 1){512}", unrolls(513)},
		{"(x){100}(y){100}{100}", unrolls(10302)},
		{strings.Repeat("-[:a]->", 1<<17), row},
		{"(x)" + strings.Repeat(" | (x)", 1<<17), row},
		{strings.Repeat("((x)-->)", 1<<16), row},
	} {
		start := time.Now()
		_, err := parseGQL(tc.text)
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%.40q: refused after %v, want under 100ms", tc.text, took)
		}
		if want := tc.want; !errors.Is(err, rpq.ErrTooLarge) || !strings.Contains(err.Error(), want) {
			t.Errorf("%.40q: %v, want %q", tc.text, err, want)
		}
	}
}

// TestGQLNonASCIINames: the gql lexer reads UTF-8, so a letter outside
// ASCII starts a name and any other character is a one-character name:
// such patterns match as their ASCII renamings do, served under both
// pattern languages.
func TestGQLNonASCIINames(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	for _, lang := range []string{"gql", "coregql"} {
		for _, tc := range []struct {
			text, ascii string
			names       []string // old, new pairs
		}{
			{"(é)-[ü:Transfer]->(ÿ)", "(x)-[y:Transfer]->(z)", []string{"  x=", "  é=", "  y=", "  ü=", "  z=", "  ÿ="}},
			{"(©)-[:Transfer]->()-->(Ω)", "(a)-[:Transfer]->()-->(b)", []string{"  a=", "  ©=", "  b=", "  Ω="}},
		} {
			text, ascii := tc.text, tc.ascii
			if lang == "coregql" {
				text, ascii = strings.ReplaceAll(text, ":Transfer", ""), strings.ReplaceAll(ascii, ":Transfer", "")
			}
			got, err := e.QueryCtx(context.Background(), Request{Query: text, Lang: lang})
			if err != nil {
				t.Fatalf("%s %s: %v", lang, text, err)
			}
			want, err := e.QueryCtx(context.Background(), Request{Query: ascii, Lang: lang})
			if err != nil {
				t.Fatalf("%s %s: %v", lang, ascii, err)
			}
			renamed := strings.NewReplacer(tc.names...)
			for i := range want.Matches {
				want.Matches[i] = renamed.Replace(want.Matches[i])
			}
			if len(got.Matches) == 0 || !slices.Equal(got.Matches, want.Matches) {
				t.Errorf("%s %s: %d matches %q, want %q", lang, text, len(got.Matches), got.Matches, want.Matches)
			}
		}
	}
}
