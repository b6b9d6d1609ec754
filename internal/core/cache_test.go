package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphquery/internal/gen"
)

func TestPlanCacheHitsAndNormalization(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	if s := e.CacheStats(); s.Hits != 0 || s.Misses != 0 || s.Size != 0 {
		t.Fatalf("fresh engine stats = %+v", s)
	}
	first, err := e.Pairs("Transfer Transfer")
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 1 || s.Hits != 0 || s.Size != 1 {
		t.Fatalf("after cold query: %+v", s)
	}
	// Same query modulo whitespace must hit the same plan.
	again, err := e.Pairs("  Transfer\tTransfer ")
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Fatalf("after warm query: %+v", s)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached plan changed the answer: %v vs %v", again, first)
	}
	// A different kind with identical text gets its own namespace.
	if _, err := e.TwoWayPairs("Transfer Transfer"); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Size != 2 || s.Misses != 2 {
		t.Fatalf("kind namespacing broken: %+v", s)
	}
	// Parse errors are not cached.
	if _, err := e.Pairs("((("); err == nil {
		t.Fatal("expected parse error")
	}
	if s := e.CacheStats(); s.Size != 2 {
		t.Fatalf("parse error was cached: %+v", s)
	}
}

// TestPlanCacheKeyKeepsSignificantBlanks: two texts share a plan only if
// every parser reads them alike. A vertical tab is a label to the RPQ lexer
// and blanks inside quotes are part of the label; rpq.FuzzParse found the
// first answered from the plan of `Transfer Transfer`.
func TestPlanCacheKeyKeepsSignificantBlanks(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	want, err := e.Pairs("Transfer Transfer")
	if err != nil || len(want) == 0 {
		t.Fatal(want, err)
	}
	for _, q := range []string{"Transfer\vTransfer", "Transfer\u0085Transfer", "'Transfer Transfer'", "'Transfer  Transfer'"} {
		got, err := e.Pairs(q)
		if err != nil || len(got) != 0 {
			t.Errorf("%q: (%d pairs, %v), want none: no path spells those labels", q, len(got), err)
		}
	}
	if s := e.CacheStats(); s.Size != 5 || s.Hits != 0 {
		t.Fatalf("five different queries: %+v", s)
	}
}

// TestNormalizeQueryMatchesFields holds the one-pass key normalization to
// its definition — the text's blank-free runs joined by one space — over
// random texts of blanks, \v, \f, U+0085, multi-byte and invalid UTF-8
// bytes and labels. (Its speed on a 1 MiB body with a blank every few bytes
// is timed where it matters, in the server's refusal rows.)
func TestNormalizeQueryMatchesFields(t *testing.T) {
	fields := func(q string) string {
		return strings.Join(strings.FieldsFunc(q, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n' || r == '\r'
		}), " ")
	}
	alphabet := []string{" ", "  ", "\t", "\n", "\r", "\v", "\f", "\u0085", "é", "\xff", "a", "b*", "(", "|"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		q := sb.String()
		if got, want := normalizeQuery(q), fields(q); got != want {
			t.Fatalf("normalizeQuery(%q) = %q, want %q", q, got, want)
		}
	}
}

func TestPlanCacheEviction(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	e.SetPlanCacheCapacity(2)
	for _, q := range []string{"Transfer", "owner", "isBlocked"} {
		if _, err := e.Pairs(q); err != nil {
			t.Fatal(err)
		}
	}
	s := e.CacheStats()
	if s.Size != 2 || s.Evictions != 1 || s.Capacity != 2 {
		t.Fatalf("LRU bound not enforced: %+v", s)
	}
	// "Transfer" was least recently used and must have been evicted.
	if _, err := e.Pairs("Transfer"); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 4 || s.Evictions != 2 {
		t.Fatalf("expected LRU eviction of oldest entry: %+v", s)
	}
	// Capacity 0 disables caching entirely.
	e.SetPlanCacheCapacity(0)
	if s := e.CacheStats(); s.Size != 0 {
		t.Fatalf("resize(0) kept entries: %+v", s)
	}
	if _, err := e.Pairs("owner"); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Size != 0 {
		t.Fatalf("disabled cache stored a plan: %+v", s)
	}
}

// planLine extracts the "plan:" line from Explain output (the Explain text
// also carries per-run span timings, so whole-output comparison is not
// stable).
func planLine(t *testing.T, e *Engine, query string) string {
	t.Helper()
	out, err := e.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "plan:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "plan:"))
		}
	}
	t.Fatalf("no plan line in Explain output:\n%s", out)
	return ""
}

// TestPlanCacheKeyedByKnobs is the regression test for the stale-plan bug:
// the cache used to key on kind × normalized text alone, so flipping an
// engine knob that feeds compilation (Parallelism drives the planner's
// worker choice) kept serving the plan compiled under the old setting.
// Clique(64) with "a a*" clears both planner gates (≥ 32 nodes, frontier
// mass ≥ 2^15), so the planned worker count genuinely differs between the
// two settings and must show up in the Explain plan line.
func TestPlanCacheKeyedByKnobs(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	e.Parallelism = 1
	before := planLine(t, e, "a a*")
	if !strings.Contains(before, "workers=1") {
		t.Fatalf("sequential plan line missing workers=1: %s", before)
	}
	e.Parallelism = 4
	after := planLine(t, e, "a a*")
	if !strings.Contains(after, "workers=4") {
		t.Fatalf("plan not replanned after Parallelism change (stale cache entry?): %s", after)
	}
	// Each knob setting owns a distinct entry; returning to the first must
	// hit its original plan, not rebuild.
	e.Parallelism = 1
	hits := e.CacheStats().Hits
	if again := planLine(t, e, "a a*"); again != before {
		t.Fatalf("returning to Parallelism=1 changed the plan: %s vs %s", again, before)
	}
	if got := e.CacheStats().Hits; got != hits+1 {
		t.Fatalf("expected a cache hit for the original knob setting, hits %d -> %d", hits, got)
	}
	// MaxLen is part of the key too (it bounds enumeration plans).
	e.MaxLen = 8
	if _, err := e.Explain("a a*"); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Size != 3 {
		t.Fatalf("expected 3 distinct entries across knob settings, got %+v", s)
	}
}

func TestEngineParallelismDeterminism(t *testing.T) {
	g := gen.Random(40, 300, []string{"a", "b", "c"}, 21)
	seq := New(g)
	seq.Parallelism = 1
	par := New(g)
	par.Parallelism = 4
	for _, q := range []string{"a*", "(a | b) c*", "_ _", "nolabel"} {
		want, err := seq.Pairs(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Pairs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: parallel engine diverged", q)
		}
	}
	wantRows, err := seq.Rows("q(x, y) :- a(x, y), b*(y, x)")
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := par.Rows("q(x, y) :- a(x, y), b*(y, x)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("Rows diverged between parallel and sequential engines")
	}
}
