package crossval_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/dlrpq"
	"graphquery/internal/gql"
	"graphquery/internal/lrpq"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
	"graphquery/internal/twoway"
)

var updateGoldenParse = flag.Bool("update-golden-parse", false, "rewrite testdata/parse.golden")

// parseCorpora are the packages whose fuzz corpora feed parse.golden: every
// package with a text parser.
var parseCorpora = []string{"rpq", "lrpq", "twoway", "dlrpq", "gql", "cypherfrag", "spanner", "relalg", "crpq"}

// goldenParsers are the served parsers, each reduced to what it prints a
// text as.
var goldenParsers = []struct {
	name  string
	parse func(string) (fmt.Stringer, error)
}{
	{"rpq", func(s string) (fmt.Stringer, error) { return rpq.Parse(s) }},
	{"lrpq", func(s string) (fmt.Stringer, error) { return lrpq.Parse(s) }},
	{"twoway", func(s string) (fmt.Stringer, error) { return twoway.Parse(s) }},
	{"dlrpq", func(s string) (fmt.Stringer, error) { return dlrpq.Parse(s) }},
	{"gql", func(s string) (fmt.Stringer, error) { return gql.ParsePattern(s) }},
	{"cypher", func(s string) (fmt.Stringer, error) { return cypherfrag.Parse(s) }},
	{"spanner", func(s string) (fmt.Stringer, error) { return spanner.Parse(s) }},
	{"relalg", func(s string) (fmt.Stringer, error) { return relalg.ParseQuery(s) }},
	{"crpq", func(s string) (fmt.Stringer, error) { return crpq.Parse(s) }},
}

// TestGoldenParse pins how every served parser reads a fixed set of texts:
// the queries of goldenTexts and goldenPatterns and every text of the
// parsers' fuzz corpora, seeds and committed files alike, each offered to
// every parser. A row is the tree the parser printed, cut to a digest when
// long, or "refused". Run with -update-golden-parse to rewrite the file.
func TestGoldenParse(t *testing.T) {
	texts := append(append([]string(nil), goldenTexts...), goldenPatterns...)
	for _, pkg := range parseCorpora {
		texts = append(texts, corpusTexts(t, filepath.Join("..", pkg))...)
	}
	var b strings.Builder
	seen := map[string]bool{}
	for _, text := range texts {
		if seen[text] {
			continue
		}
		seen[text] = true
		head := goldenHead(text)
		for _, p := range goldenParsers {
			reading := "refused"
			if e, err := p.parse(text); err == nil {
				reading = e.String()
				if len(reading) > 80 {
					reading = fmt.Sprintf("%s… (%d bytes, sha256 %x)", reading[:60], len(reading), sha256.Sum256([]byte(reading)))
				}
			}
			fmt.Fprintf(&b, "%s %s => %s\n", p.name, head, reading)
		}
	}
	path := filepath.Join("testdata", "parse.golden")
	got := b.String()
	if *updateGoldenParse {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("readings differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("readings differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
}
