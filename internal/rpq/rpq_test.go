package rpq

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func rep(sym string, n int) []string {
	w := make([]string, n)
	for i := range w {
		w[i] = sym
	}
	return w
}

func TestParseBasics(t *testing.T) {
	tests := []struct {
		in   string
		want string // canonical String() rendering
	}{
		{"a", "a"},
		{"a b", "a b"},
		{"a.b", "a b"},
		{"a | b", "a | b"},
		{"a*", "a*"},
		{"a+", "a+"},
		{"a?", "a?"},
		{"(a b)*", "(a b)*"},
		{"a{2}", "a{2}"},
		{"a{2,5}", "a{2,5}"},
		{"a{2,}", "a{2,}"},
		{"_", "_"},
		{"!{a,b}", "!{a,b}"},
		{"()", "()"},
		{"'weird label'", "'weird label'"},
		{"Transfer Transfer?", "Transfer Transfer?"},
		{"a | b c*", "a | b c*"},
		{"(a|b)*", "(a | b)*"},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if got := e.String(); got != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// String() output must re-parse to the same rendering.
	inputs := []string{
		"a", "a b c", "a | b | c", "a* b+ c?", "(a (b | c))* !{x,y} _",
		"a{3} (b{1,2})+", "'has space'* | d",
	}
	for _, in := range inputs {
		e := MustParse(in)
		e2, err := Parse(e.String())
		if err != nil {
			t.Errorf("reparse %q: %v", e.String(), err)
			continue
		}
		if e2.String() != e.String() {
			t.Errorf("round trip: %q -> %q", e.String(), e2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "|a", "a|", "(a", "a)", "a{", "a{2", "a{2,1}", "a{x}",
		"!{", "!{}", "!{a", "!a", "*", "a**b{", "a{}",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestMatchesBasic(t *testing.T) {
	tests := []struct {
		expr string
		word []string
		want bool
	}{
		{"a*", nil, true},
		{"a*", rep("a", 5), true},
		{"a*", []string{"b"}, false},
		{"(a a)*", rep("a", 4), true},
		{"(a a)*", rep("a", 5), false},
		{"a b | c", []string{"a", "b"}, true},
		{"a b | c", []string{"c"}, true},
		{"a b | c", []string{"a"}, false},
		{"a+", nil, false},
		{"a+", rep("a", 1), true},
		{"a?", nil, true},
		{"a?", rep("a", 2), false},
		{"a{2,3}", rep("a", 1), false},
		{"a{2,3}", rep("a", 2), true},
		{"a{2,3}", rep("a", 3), true},
		{"a{2,3}", rep("a", 4), false},
		{"a{2,}", rep("a", 7), true},
		{"_ _", []string{"x", "y"}, true},
		{"_ _", []string{"x"}, false},
		{"!{a} b", []string{"c", "b"}, true},
		{"!{a} b", []string{"a", "b"}, false},
		{"()", nil, true},
		{"()", []string{"a"}, false},
		{"Transfer Transfer?", []string{"Transfer"}, true},
		{"Transfer Transfer?", []string{"Transfer", "Transfer"}, true},
		{"Transfer Transfer?", []string{"Transfer", "Transfer", "Transfer"}, false},
	}
	for _, tc := range tests {
		e := MustParse(tc.expr)
		if got := Matches(e, tc.word); got != tc.want {
			t.Errorf("Matches(%q, %v) = %v, want %v", tc.expr, tc.word, got, tc.want)
		}
	}
}

func TestGlushkovSizeLinear(t *testing.T) {
	// The Glushkov automaton has (#label occurrences + 1) states.
	e := MustParse("(a b | c d e)* f")
	n := Compile(e)
	if n.NumStates != 7 {
		t.Errorf("Glushkov states = %d, want 7 (6 positions + initial)", n.NumStates)
	}
}

func TestDesugarRepeat(t *testing.T) {
	// a{2,4} desugared contains no Repeat and matches a^2..a^4 only.
	e := Desugar(MustParse("a{2,4}"))
	var hasRepeat func(Expr) bool
	hasRepeat = func(e Expr) bool {
		switch n := e.(type) {
		case Repeat:
			return true
		case Concat:
			for _, p := range n.Parts {
				if hasRepeat(p) {
					return true
				}
			}
		case Union:
			for _, a := range n.Alts {
				if hasRepeat(a) {
					return true
				}
			}
		case Star:
			return hasRepeat(n.Sub)
		}
		return false
	}
	if hasRepeat(e) {
		t.Error("Desugar left a Repeat node")
	}
	for n := 0; n <= 6; n++ {
		want := n >= 2 && n <= 4
		if got := Matches(e, rep("a", n)); got != want {
			t.Errorf("a{2,4} on a^%d = %v, want %v", n, got, want)
		}
	}
}

func TestEquivalentExpressions(t *testing.T) {
	pairs := []struct {
		a, b string
		want bool
	}{
		{"a{2}", "a a", true}, // the regular-expression identity Example 1 appeals to
		{"(a*)*", "a*", true},
		{"(((a*)*)*)*", "a*", true}, // §6.1: the explosive expression is just a*
		{"a+", "a a*", true},
		{"a?", "a | ()", true},
		{"(a|b)*", "(a* b*)*", true},
		{"(a a)*", "a*", false},
		{"a", "a a", false},
		{"!{a}", "_", false},
		{"!{a} | a", "_", true},
	}
	for _, tc := range pairs {
		got := Equivalent(MustParse(tc.a), MustParse(tc.b))
		if got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSimplify(t *testing.T) {
	tests := []struct{ in, want string }{
		{"(((a*)*)*)*", "a*"},
		{"(a*)*", "a*"},
		{"(() | a)*", "a*"},
		{"a () b", "a b"},
		{"a | a | b", "a | b"},
		{"(a* | b)*", "(a | b)*"},
		{"(a) ((b))", "a b"},
		{"()*", "()"},
		{"a{1}", "a"},
		{"a{0}", "()"},
	}
	for _, tc := range tests {
		got := Simplify(MustParse(tc.in)).String()
		if got != tc.want {
			t.Errorf("Simplify(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSimplifyPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	exprs := make([]Expr, 0, 60)
	for i := 0; i < 60; i++ {
		exprs = append(exprs, randomExpr(rng, 4))
	}
	for _, e := range exprs {
		s := Simplify(e)
		if !Equivalent(e, s) {
			t.Fatalf("Simplify changed language:\n  in:  %s\n  out: %s", e, s)
		}
		if Size(s) > Size(e) {
			t.Errorf("Simplify grew expression: %s (%d) -> %s (%d)", e, Size(e), s, Size(s))
		}
	}
}

// randomExpr generates a random RPQ of bounded depth over {a, b}.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return L("a")
		case 1:
			return L("b")
		case 2:
			return Eps()
		default:
			return Not("a")
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Seq(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return Alt(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return Kleene(randomExpr(rng, depth-1))
	default:
		return Between(randomExpr(rng, depth-1), rng.Intn(2), rng.Intn(3)+1)
	}
}

func TestSizeAndLabels(t *testing.T) {
	e := MustParse("(a b | !{c,d})* e")
	// Nodes: top concat, star, union, inner concat, a, b, !{c,d}, e = 8.
	if got := Size(e); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
	want := []string{"a", "b", "c", "d", "e"}
	if got := Labels(e); !reflect.DeepEqual(got, want) {
		t.Errorf("Labels = %v, want %v", got, want)
	}
}

func TestStringQuoting(t *testing.T) {
	e := L("has space")
	if !strings.HasPrefix(e.String(), "'") {
		t.Errorf("labels with spaces must be quoted: %q", e.String())
	}
	if got := MustParse(e.String()); got.String() != e.String() {
		t.Errorf("quoted label round trip failed: %q", got.String())
	}
	if L("_").String() != "'_'" {
		t.Errorf("literal underscore label must be quoted, got %q", L("_").String())
	}
	// The lexer reads a backslash in a quoted label as "the next byte is
	// literal", so the printer escapes backslashes as well as quotes.
	for _, name := range []string{`\`, `a\`, `it's`, `\'`, `a\\'b`} {
		got, err := Parse(L(name).String())
		if err != nil || got != L(name) {
			t.Errorf("label %q prints as %s, which parses to %v (%v)", name, L(name), got, err)
		}
	}
}

func TestCompileWildcardIntoNFA(t *testing.T) {
	n := Compile(MustParse("!{Transfer} _*"))
	if n.Accepts([]string{"Transfer"}) {
		t.Error("should reject Transfer as first label")
	}
	if !n.Accepts([]string{"owner", "Transfer", "x"}) {
		t.Error("should accept words starting with a non-Transfer label")
	}
}

func TestConstructorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alt() with no alternatives should panic")
		}
	}()
	Alt()
}

func TestContained(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"(a a)*", "a*", true},
		{"a*", "(a a)*", false},
		{"a", "a | b", true},
		{"a | b", "a", false},
		{"a{2,4}", "a+", true},
		{"a+", "a{2,4}", false},
		{"!{a}", "_", true},
		{"_", "!{a}", false},
		{"()", "a*", true},
		{"(a b)+", "a (b a)* b", true}, // same language, both directions
		{"a (b a)* b", "(a b)+", true},
	}
	for _, tc := range cases {
		if got := Contained(MustParse(tc.a), MustParse(tc.b)); got != tc.want {
			t.Errorf("Contained(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestContainedConsistentWithEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		a, b := randomExpr(rng, 3), randomExpr(rng, 3)
		mutual := Contained(a, b) && Contained(b, a)
		if mutual != Equivalent(a, b) {
			t.Fatalf("containment both ways (%v) must equal equivalence for %s vs %s", mutual, a, b)
		}
	}
}
