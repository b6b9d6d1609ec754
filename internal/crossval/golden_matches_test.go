package crossval_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

var updateGoldenMatches = flag.Bool("update-golden-matches", false, "rewrite testdata/matches.golden")

// goldenPatterns are the gql and coregql texts of the package tests, the
// crossval tests (their constructed patterns written out as text), the
// README and PAPER.md (Examples 1–3).
var goldenPatterns = []string{
	// README and the served-reply tests
	"(x)-[:Transfer]->(y)", "(x)-->(y)", "(x)-[:a]->(y)", "(x) -[:Transfer]-> (y)",
	// PAPER.md Example 1, its joined and separate variants
	"(x) (()-[z:a]->()){2} (y)",
	"(x) ()-[z:a]->() ()-[z:a]->() (y)",
	"(x) ()-[z:a]->() ()-[z1:a]->() (y)",
	// Example 2
	"((x)-[:a]->(x)-[:a]->){2}",
	// Example 3
	"(x) ((u)-[:a]->(v) WHERE u.date < v.date)* (y)",
	"(x) ((u)-[:a]->(v) WHERE u.k < v.k)* (y)",
	// internal/gql's parse tests
	"(x)", "()", "(x:Account)", "(:Account)", "-->", "-[z:a]->", "-[:a]->", "-[z]->",
	"(x)-[z:a]->(y)", "(()-[z:a]->()){2}", "((x) | -[y:a]->)", "(x)(()-->())*(y)",
	"(()-->()){2,5}", "(()-->()){2,}",
	"((x)-[e:Transfer]->(y) WHERE Account(x) AND e.amount >= 5000000 AND NOT x.isBlocked = 'yes')",
	"((x) WHERE x.owner = 'Mike' OR x.owner = 'Jay')",
	"((u)-[e]->(v) WHERE e.amount > 7.5)",
	// internal/gql's and internal/coregql's constructed patterns
	"((x) | -[y]->)", "((x:Account) WHERE x.isBlocked = 'yes')",
	"(()-[z]->()){1}()-[z]->()",
	"(x)(()-[u]->()-[v]->() WHERE u.k < v.k)*(y)",
	"(x)(()-->())+(y)", "(x)-->(x)", "((x)-->(y))*", "((x)-->(y)){2}",
	"(x)-->(y)-->(z)", "((x)-->(y) | (x)-->()-->(y))",
	"((u)-->(v) WHERE u.k < v.k)", "(s)((u)-->(v) WHERE u.k < v.k)*(t)",
	// crossval's constructed patterns
	"(x)(()-[:a]->())*(y)", "(x)-[:a]->(x)",
	"(()-[:a]->() | ()-[:b]->()-[:c]->())", "(x)(()-[:b]->()){1,2}(y)",
	"(()-->() | ()-->()-->())", "(x)(()-->()){1,2}(y)",
}

// goldenGraphs are the graphs every pattern runs on: the two bank graphs
// and three seeded random ones.
func goldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	out := []struct {
		name string
		g    *graph.Graph
	}{{"bank", gen.BankEdgeLabeled()}, {"bank-property", gen.BankProperty()}}
	for _, seed := range []int64{1, 7, 23} {
		out = append(out, struct {
			name string
			g    *graph.Graph
		}{fmt.Sprintf("random-%d", seed), gen.Random(7, 13, []string{"a", "b", "c"}, seed)})
	}
	return out
}

// TestGoldenMatches pins what the served match enumerators answer for
// every golden pattern, as gql and as coregql, on every golden graph with
// paths up to three edges: the number of match lines, the first three, a
// SHA-256 of all of them in order, and the meter's states_visited and
// rows_produced — or the error. Run with -update-golden-matches to
// rewrite testdata/matches.golden.
func TestGoldenMatches(t *testing.T) {
	// A cancelable context gives the query a meter to read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var b strings.Builder
	for _, gg := range goldenGraphs() {
		e := core.New(gg.g)
		for _, text := range goldenPatterns {
			for _, lang := range []string{"gql", "coregql"} {
				fmt.Fprintf(&b, "%s %s %q\n", gg.name, lang, text)
				resp, err := e.QueryCtx(ctx, core.Request{Query: text, Lang: lang, MaxLen: 3})
				if err != nil {
					fmt.Fprintf(&b, "  error %s\n", err)
					continue
				}
				fmt.Fprintf(&b, "  lines %d states %d rows %d sha256 %x\n", len(resp.Matches),
					resp.StatesVisited, resp.RowsProduced, sha256.Sum256([]byte(strings.Join(resp.Matches, "\n"))))
				for _, line := range resp.Matches[:min(3, len(resp.Matches))] {
					fmt.Fprintf(&b, "  %s\n", line)
				}
			}
		}
	}
	path := filepath.Join("testdata", "matches.golden")
	got := b.String()
	if *updateGoldenMatches {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("matches differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("matches differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
