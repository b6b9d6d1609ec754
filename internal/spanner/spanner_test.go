package spanner

import (
	"errors"
	"strings"
	"testing"

	"graphquery/internal/rpq"
)

func TestEvaluateWholeDocument(t *testing.T) {
	// x{a*} b over "aab": x = [0,2).
	e := Seq(Cap("x", Star(Lit("a"))), Lit("b"))
	ms := Evaluate("aab", e)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0]["x"] != (Span{0, 2}) {
		t.Errorf("x = %v, want [0,2)", ms[0]["x"])
	}
	// Whole-document: no match on a longer doc.
	if got := Evaluate("aabz", e); len(got) != 0 {
		t.Errorf("trailing content should prevent whole-doc match: %d", len(got))
	}
}

func TestExtractAllOccurrences(t *testing.T) {
	// Extract every word followed by a comma.
	doc := "alice,bob;carol,dan"
	e := Seq(Cap("name", Plus(Word())), Lit(","))
	ms := Extract(doc, e)
	// Possible captures: all word-suffixes ending right before a comma:
	// "alice", "lice", …, plus "carol", "arol", ….
	got := map[string]bool{}
	for _, m := range ms {
		s := m["name"]
		got[doc[s.Start:s.End]] = true
	}
	if !got["alice"] || !got["carol"] {
		t.Errorf("expected alice and carol among %v", got)
	}
	if got["bob"] || got["dan"] {
		t.Error("bob and dan are not followed by commas")
	}
}

func TestAmbiguousCapturesEnumerated(t *testing.T) {
	// x{a*} a* over "aaa": x may be [0,0), [0,1), [0,2), [0,3).
	e := Seq(Cap("x", Star(Lit("a"))), Star(Lit("a")))
	ms := Evaluate("aaa", e)
	if len(ms) != 4 {
		t.Fatalf("matches = %d, want 4", len(ms))
	}
	for i, m := range ms {
		if m["x"].Start != 0 || m["x"].End != i {
			t.Errorf("match %d: x = %v", i, m["x"])
		}
	}
}

func TestUnionAndClass(t *testing.T) {
	e := Alt(Cap("x", Lit("cat")), Cap("x", Lit("dog")))
	if ms := Evaluate("dog", e); len(ms) != 1 || ms[0]["x"] != (Span{0, 3}) {
		t.Errorf("union capture failed: %v", ms)
	}
	w := Word()
	if !w.(ClassFn).Fn('k') || w.(ClassFn).Fn(' ') {
		t.Error("Word class predicate wrong")
	}
}

func TestCaptureConflictsPruned(t *testing.T) {
	// x{a} x{a}: the same variable bound twice in one run is not a valid
	// functional spanner run.
	e := Seq(Cap("x", Lit("a")), Cap("x", Lit("a")))
	if ms := Evaluate("aa", e); len(ms) != 0 {
		t.Errorf("double binding should produce no runs, got %d", len(ms))
	}
	// But re-binding to the same span via union dedups fine.
	e2 := Alt(Cap("x", Lit("a")), Cap("x", Lit("a")))
	if ms := Evaluate("a", e2); len(ms) != 1 {
		t.Errorf("identical alternatives should dedup, got %d", len(ms))
	}
}

func TestStarTermination(t *testing.T) {
	// (ε|a)* must terminate despite the nullable alternative.
	e := Star(Alt(Lit(""), Lit("a")))
	ms := Evaluate("aaaa", e)
	if len(ms) != 1 {
		t.Errorf("matches = %d, want 1", len(ms))
	}
}

// TestBruteForceAgreement cross-checks Evaluate against a naive span
// enumeration for a capture-one-var expression.
func TestBruteForceAgreement(t *testing.T) {
	doc := "abcabc"
	// .* x{ 'a' .* } .* with x capturing any substring starting with 'a'.
	e := Cap("x", Seq(Lit("a"), Star(Dot())))
	ms := Extract(doc, e)
	got := map[Span]bool{}
	for _, m := range ms {
		got[m["x"]] = true
	}
	want := map[Span]bool{}
	for i := 0; i < len(doc); i++ {
		if doc[i] != 'a' {
			continue
		}
		for j := i + 1; j <= len(doc); j++ {
			want[Span{i, j}] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for s := range want {
		if !got[s] {
			t.Errorf("missing span %v", s)
		}
	}
}

func TestVarsAndString(t *testing.T) {
	e := Seq(Cap("b", Lit("x")), Alt(Cap("a", Dot()), Lit("")))
	vars := Vars(e)
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b" {
		t.Errorf("Vars = %v", vars)
	}
	if s := e.String(); !strings.Contains(s, "b{x}") {
		t.Errorf("String = %q", s)
	}
}

func TestEmptyDocument(t *testing.T) {
	if ms := Evaluate("", Star(Lit("a"))); len(ms) != 1 {
		t.Errorf("ε-match on empty doc: %d", len(ms))
	}
	if ms := Evaluate("", Lit("a")); len(ms) != 0 {
		t.Errorf("a on empty doc: %d", len(ms))
	}
}

// TestParsePartsBound: a concatenation or a union of rpq.MaxPositions parts
// parses; one more is refused as too large, naming the count, before the
// parser reads the rest of the text.
func TestParsePartsBound(t *testing.T) {
	for _, row := range []func(n int) string{
		func(n int) string { return strings.Repeat("a", n) },
		func(n int) string { return strings.Repeat("a|", n-1) + "a" },
	} {
		if _, err := Parse(row(rpq.MaxPositions)); err != nil {
			t.Errorf("%.8s… of %d parts: %v", row(2), rpq.MaxPositions, err)
		}
		_, err := Parse(row(1 << 19))
		if !errors.Is(err, rpq.ErrTooLarge) || !strings.Contains(err.Error(), "513 parts") {
			t.Errorf("%.8s… of 2^19 parts: %v", row(2), err)
		}
	}
}

// TestParseCaptureNesting: a capture counts as the two levels it prints as,
// (x{…}), so what parses prints to a text that parses: 500 nested captures
// do, and 501 are refused, bracketed or not.
func TestParseCaptureNesting(t *testing.T) {
	nested := func(n int) string { return strings.Repeat("x{", n) + "a" + strings.Repeat("}", n) }
	e, err := Parse(nested(rpq.MaxNesting / 2))
	if err != nil {
		t.Fatalf("%d captures: %v", rpq.MaxNesting/2, err)
	}
	if back, err := Parse(e.String()); err != nil || back.String() != e.String() {
		t.Errorf("%d captures print as a text that reads back as %v, %v", rpq.MaxNesting/2, back, err)
	}
	for _, text := range []string{nested(rpq.MaxNesting/2 + 1), "(" + nested(rpq.MaxNesting/2+1) + ")"} {
		if _, err := Parse(text); err == nil || !strings.Contains(err.Error(), "the bound is 1000") {
			t.Errorf("%.12s… of %d captures: %v", text, rpq.MaxNesting/2+1, err)
		}
	}
	// A group around a capture alone is the capture's own brackets.
	if _, err := Parse(strings.Repeat("(x{", rpq.MaxNesting/2) + "a" + strings.Repeat("})", rpq.MaxNesting/2)); err != nil {
		t.Errorf("%d bracketed captures: %v", rpq.MaxNesting/2, err)
	}
}
