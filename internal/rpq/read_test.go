package rpq

import (
	"errors"
	"strings"
	"testing"
)

// TestReadPartsBound: a concatenation or union of MaxPositions parts
// parses; one more is refused as too large as it is read, naming the
// count — ε parts included, which CheckPositions counts one each.
func TestReadPartsBound(t *testing.T) {
	for _, row := range []func(n int) string{
		func(n int) string { return strings.Repeat("a ", n) },
		func(n int) string { return strings.Repeat("a|", n-1) + "a" },
		func(n int) string { return strings.Repeat("()", n) },
	} {
		if _, err := Parse(row(MaxPositions)); err != nil {
			t.Errorf("%.8s… of %d parts: %v", row(2), MaxPositions, err)
		}
		_, err := Parse(row(1 << 19))
		if !errors.Is(err, ErrTooLarge) || !strings.Contains(err.Error(), "513 parts") {
			t.Errorf("%.8s… of 2^19 parts: %v", row(2), err)
		}
	}
}

// TestReadNestingBound: groups and repetitions nest up to MaxNesting deep,
// and one more is refused with the depth and the bound named.
func TestReadNestingBound(t *testing.T) {
	groups := func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) }
	stars := func(n int) string { return "a" + strings.Repeat("*", n) }
	for _, text := range []string{groups(MaxNesting), stars(MaxNesting), groups(MaxNesting-1) + "()"} {
		if _, err := Parse(text); err != nil {
			t.Errorf("%.12s… at the bound: %v", text, err)
		}
	}
	for _, text := range []string{groups(MaxNesting + 1), stars(MaxNesting + 1), "(" + groups(MaxNesting-1) + "*)", strings.Repeat("(", 1<<20)} {
		_, err := Parse(text)
		if err == nil || !strings.Contains(err.Error(), "nest 1001 deep; the bound is 1000") {
			t.Errorf("%.12s… past the bound: %v", text, err)
		}
	}
}

func TestScanCount(t *testing.T) {
	for _, tc := range []struct {
		text     string
		min, max int
		n        int
	}{
		{"{2}", 2, 2, 3},
		{"{2,}x", 2, -1, 4},
		{"{2,5}", 2, 5, 5},
		{"{ 2 ,\t5 } ", 2, 5, 9},
		{"{0,0}", 0, 0, 5},
		{"{99999999999999999999}", 1<<63 - 1, 1<<63 - 1, 22},
	} {
		min, max, n, err := ScanCount(tc.text)
		if err != nil || min != tc.min || max != tc.max || n != tc.n {
			t.Errorf("ScanCount(%q) = %d, %d, %d, %v; want %d, %d, %d", tc.text, min, max, n, err, tc.min, tc.max, tc.n)
		}
	}
	// A count is digits only: no sign, fraction or exponent.
	for _, text := range []string{"{", "{}", "{-1}", "{2,-1}", "{2.5}", "{1e3}", "{+2}", "{3,1}", "{2", "{2,", "{2 3}"} {
		if _, _, _, err := ScanCount(text); err == nil {
			t.Errorf("ScanCount(%q) should fail", text)
		}
	}
}

// TestParseIn: an RPQ read in place stops at the ')' it did not open.
func TestParseIn(t *testing.T) {
	src := "REACH((a|b)* 'x)y' c) AS (x, y)"
	e, end, err := ParseIn(src, len("REACH("))
	if err != nil || e.String() != "(a | b)* 'x)y' c" || src[end:] != ") AS (x, y)" {
		t.Errorf("ParseIn = %v, %q, %v", e, src[end:], err)
	}
	for _, text := range []string{"REACH()", "REACH(a", "REACH((a)"} {
		if _, _, err := ParseIn(text, len("REACH(")); err == nil {
			t.Errorf("ParseIn(%q) should fail", text)
		}
	}
}
