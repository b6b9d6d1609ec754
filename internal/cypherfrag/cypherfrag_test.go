package cypherfrag

import (
	"errors"
	"strings"
	"testing"

	"graphquery/internal/rpq"
)

func TestCompile(t *testing.T) {
	tests := []struct {
		p    Pattern
		want string // equivalent RPQ (textual)
	}{
		{Edge("a"), "a"},
		{Edge("a", "b"), "a | b"},
		{StarOf("a"), "a*"},
		{StarOf("a", "b"), "(a | b)*"},
		{Concat(Edge("a"), StarOf("b")), "a b*"},
		{Union(Edge("a"), StarOf("b")), "a | b*"},
	}
	for _, tc := range tests {
		got := Compile(tc.p)
		if !rpq.Equivalent(got, rpq.MustParse(tc.want)) {
			t.Errorf("Compile(%s) = %s, want ≡ %s", tc.p, got, tc.want)
		}
	}
}

func TestSize(t *testing.T) {
	p := Concat(Edge("a"), Union(StarOf("a"), Edge("a")))
	if got := Size(p); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
}

// TestExpressibleTargets: languages the fragment CAN express are found.
func TestExpressibleTargets(t *testing.T) {
	tests := []string{
		"a*",
		"a",
		"a | b",
		"a b*",
		"(a | b)* a",
	}
	for _, target := range tests {
		res := SearchEquivalent(rpq.MustParse(target), []string{"a", "b"}, 7)
		if res.Found == nil {
			t.Errorf("target %q should be expressible in the fragment", target)
			continue
		}
		if !rpq.Equivalent(Compile(res.Found), rpq.MustParse(target)) {
			t.Errorf("search returned inequivalent pattern %s for %q", res.Found, target)
		}
	}
}

// TestProposition22 exhibits the proposition empirically: no Cypher-
// fragment pattern over {ℓ} up to the size bound is equivalent to (ℓℓ)*,
// and every candidate is refuted by an explicit witness word.
func TestProposition22(t *testing.T) {
	target := rpq.MustParse("(a a)*")
	res := SearchEquivalent(target, []string{"a"}, 9)
	if res.Found != nil {
		t.Fatalf("(aa)* reported expressible as %s — contradicts Proposition 22", res.Found)
	}
	if res.Candidates < 10 {
		t.Errorf("search explored only %d distinct languages; bound too weak for a meaningful check", res.Candidates)
	}
	// Every explored candidate has a recorded distinguishing word, and each
	// witness genuinely separates the languages.
	targetNFA := rpq.Compile(target)
	for pat, w := range res.Witnesses {
		inTarget := targetNFA.Accepts(w)
		// Recover no pattern from the string; just sanity-check the word is
		// odd-length a's or contains a non-a symbol whenever in/out differ.
		if inTarget && len(w)%2 != 0 {
			t.Errorf("witness %v for %s claimed in (aa)* but has odd length", w, pat)
		}
	}
	if len(res.Witnesses) == 0 {
		t.Error("expected distinguishing witnesses to be recorded")
	}
}

// TestProposition22WitnessesSeparate re-runs a small search and fully
// verifies the witnesses against both automata.
func TestProposition22WitnessesSeparate(t *testing.T) {
	target := rpq.MustParse("(a a)*")
	targetNFA := rpq.Compile(target)
	res := SearchEquivalent(target, []string{"a"}, 5)
	if res.Found != nil {
		t.Fatalf("unexpected equivalent pattern %s", res.Found)
	}
	// Rebuild each witnessed pattern by re-parsing is impossible from the
	// rendering; instead re-enumerate atoms and composites and check their
	// recorded witnesses by rendering lookup.
	check := func(p Pattern) {
		w, ok := res.Witnesses[p.String()]
		if !ok {
			return // deduplicated to another representative
		}
		cand := rpq.Compile(Compile(p))
		if cand.Accepts(w) == targetNFA.Accepts(w) {
			t.Errorf("witness %v fails to separate %s from (aa)*", w, p)
		}
	}
	check(Edge("a"))
	check(StarOf("a"))
	check(Concat(Edge("a"), Edge("a")))
	check(Union(Edge("a"), StarOf("a")))
}

// TestParseNestingBound: union groups nest up to rpq.MaxNesting deep, and
// one more is refused with the depth and the bound named, as soon as the
// parser reaches it — half a million open parentheses included.
func TestParseNestingBound(t *testing.T) {
	nested := func(depth int) string {
		p := "-[:a]->"
		for i := 0; i < depth; i++ {
			p = "(" + p + " + -[:b]->)"
		}
		return p
	}
	if _, err := Parse(nested(rpq.MaxNesting)); err != nil {
		t.Fatalf("%d groups deep: %v", rpq.MaxNesting, err)
	}
	for _, text := range []string{nested(rpq.MaxNesting + 1), strings.Repeat("(", 500000)} {
		_, err := Parse(text)
		if err == nil || !strings.Contains(err.Error(), "nest 1001 deep") || !strings.Contains(err.Error(), "the bound is 1000") {
			t.Errorf("%d bytes past the bound: %v", len(text), err)
		}
	}
}

// TestParsePartsBound: a concatenation or union of rpq.MaxPositions parts
// parses; one part more is refused with rpq.ErrTooLarge when the parser
// reads it.
func TestParsePartsBound(t *testing.T) {
	for _, text := range []string{strings.Repeat("-[:a]->", rpq.MaxPositions), "-[:a]->" + strings.Repeat(" + -[:b]->", rpq.MaxPositions-1)} {
		if _, err := Parse(text); err != nil {
			t.Errorf("%.40q: %v", text, err)
		}
	}
	for _, text := range []string{strings.Repeat("-[:a]->", rpq.MaxPositions+1), "(-[:a]->" + strings.Repeat(" + -[:b]->", rpq.MaxPositions) + ")"} {
		if _, err := Parse(text); !errors.Is(err, rpq.ErrTooLarge) || !strings.Contains(err.Error(), "a row of 513 parts") {
			t.Errorf("%.40q: %v", text, err)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := Concat(Edge("a", "b"), StarOf("c")).String()
	if !strings.Contains(s, "a|b") || !strings.Contains(s, "(c)*") {
		t.Errorf("rendering = %q", s)
	}
}
