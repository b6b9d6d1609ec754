package crpq

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// TestExample13Q1 reproduces q1 of Example 13:
// q1(x1,x2,x3) :- Transfer(x1,x2), Transfer(x1,x3), Transfer(x2,x3)
// returns exactly {(a3,a2,a4), (a6,a3,a5)} on the Figure 2 graph.
func TestExample13Q1(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)")
	res, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("q1 returned %d rows, want 2:\n%s", len(res.Rows), res.Format(g))
	}
	if !res.Contains(g, "a3, a2, a4") || !res.Contains(g, "a6, a3, a5") {
		t.Errorf("q1 rows:\n%s", res.Format(g))
	}
}

// TestExample13Q2 reproduces q2 of Example 13: accounts x with a 1–3-hop
// transfer path to y, returning (x, owner(y), isBlocked(y)).
func TestExample13Q2(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), Transfer Transfer? (x, y)")
	res, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(g, "a4, Rebecca, no") {
		t.Errorf("expected (a4, Rebecca, no) in:\n%s", res.Format(g))
	}
}

// TestExample17 reproduces the ℓ-CRPQ of Example 17 with its per-endpoint-
// pair shortest semantics.
func TestExample17(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)")
	res, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(g, "Jay, Rebecca, list(t10)") {
		t.Errorf("missing Jay→Rebecca row:\n%s", res.Format(g))
	}
	if !res.Contains(g, "Mike, Megan, list(t7, t4)") {
		t.Errorf("missing Mike→Megan row:\n%s", res.Format(g))
	}
}

// TestGlobalModesAblation shows what would happen if shortest were applied
// globally instead of per endpoint pair: only globally minimal paths
// survive, so the Mike→Megan (length 2) row disappears. The served plan,
// whose tier atom runs the same filter, returns the reference's rows.
func TestGlobalModesAblation(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)")
	res, err := Eval(g, q, Options{GlobalModes: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := served(g, q, Options{GlobalModes: true}); err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("served (err %v):\n%s\nreference:\n%s", err, inOrder(g, got), inOrder(g, res))
	}
	if !res.Contains(g, "Jay, Rebecca, list(t10)") {
		t.Errorf("global shortest should keep length-1 rows:\n%s", res.Format(g))
	}
	if res.Contains(g, "Mike, Megan, list(t7, t4)") {
		t.Errorf("global shortest should drop length-2 rows:\n%s", res.Format(g))
	}
}

func TestConstantTerms(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q(y) :- Transfer(@a3, y)")
	res, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0].Format(g)] = true
	}
	if len(got) != 3 || !got["a2"] || !got["a4"] || !got["a5"] {
		t.Errorf("direct transfers from a3 = %v, want {a2,a4,a5}", got)
	}
	if _, err := Eval(g, MustParse("q(y) :- Transfer(@nope, y)"), Options{}); err == nil {
		t.Error("unknown constant should fail")
	}
}

func TestSharedEndpointVariable(t *testing.T) {
	// Self-loops via q(x) :- Transfer(x, x): none in the bank graph.
	g := gen.BankEdgeLabeled()
	res, err := Eval(g, MustParse("q(x) :- Transfer(x, x)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("no Transfer self-loops expected, got %d", len(res.Rows))
	}
	// But Transfer-cycles exist: Transfer+(x, x).
	res, err = Eval(g, MustParse("q(x) :- Transfer+(x, x)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("all 6 accounts lie on transfer cycles, got %d rows", len(res.Rows))
	}
}

func TestDLAtom(t *testing.T) {
	// dl-RPQ atom inside a CRPQ: cheap transfers out of each account.
	g := gen.BankProperty()
	q := MustParse("q(x, y) :- () [Transfer][amount < 1500000] () (x, y)")
	res, err := Eval(g, q, Options{AtomMaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a1, a3": true, "a3, a2": true, "a3, a4": true}
	if len(res.Rows) != len(want) {
		t.Fatalf("cheap transfers: %d rows, want %d:\n%s", len(res.Rows), len(want), res.Format(g))
	}
	for r := range want {
		if !res.Contains(g, r) {
			t.Errorf("missing row %s", r)
		}
	}
}

func TestValidateConditions(t *testing.T) {
	// Condition 3: z used as node and list variable.
	q := &Query{
		Head:  []string{"z"},
		Atoms: []Atom{{L: lrpq.MustParse("(a^z)*"), Src: V("z"), Dst: V("y")}},
	}
	if err := q.Validate(); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("condition 3 violation not caught: %v", err)
	}
	// Condition 4: z shared across atoms.
	q = &Query{
		Head: []string{"z"},
		Atoms: []Atom{
			{L: lrpq.MustParse("(a^z)*"), Src: V("x"), Dst: V("y")},
			{L: lrpq.MustParse("(b^z)*"), Src: V("u"), Dst: V("v")},
		},
	}
	if err := q.Validate(); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("condition 4 violation not caught: %v", err)
	}
	// Condition 5: head variable unbound.
	q = &Query{
		Head:  []string{"nope"},
		Atoms: []Atom{{RPQ: rpq.MustParse("a"), Src: V("x"), Dst: V("y")}},
	}
	if err := q.Validate(); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("condition 5 violation not caught: %v", err)
	}
	// Atom with no expression.
	q = &Query{Head: nil, Atoms: []Atom{{Src: V("x"), Dst: V("y")}}}
	if err := q.Validate(); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("empty atom not caught: %v", err)
	}
	// Atom with two expressions.
	q = &Query{Head: nil, Atoms: []Atom{{
		RPQ: rpq.MustParse("a"), L: lrpq.MustParse("a"), Src: V("x"), Dst: V("y")}}}
	if err := q.Validate(); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("double atom not caught: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(x)",                      // no body
		"q(x) :- ",                  // empty body
		"q :- a(x, y)",              // malformed head
		"q(x) :- a(x)",              // one term
		"q(x) :- a(x, y, z)",        // three terms
		"q(x) :- (x, y)",            // no expression
		"q(x) :- a(x, @)",           // empty constant
		"q(x) :- a(x, y!)",          // bad term
		"q(x) :- [unclosed (x, y)",  // unbalanced
		"q(w) :- a(x, y)",           // head not bound (condition 5)
		"q() :- zigzag a* (x, y) )", // unbalanced
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

// TestParsePositionsBound: a query's atoms together may compile to
// rpq.MaxPositions automaton positions — 512 spread over several atoms
// parse — and one more is refused as too large, naming the count, whether
// it is read or built in code; a megabyte of atoms is refused at the one
// that passes the bound.
func TestParsePositionsBound(t *testing.T) {
	atoms := func(n int, expr string) string {
		return "q(x, y) :- " + strings.TrimSuffix(strings.Repeat(expr+"(x, y), ", n), ", ")
	}
	if _, err := Parse(atoms(4, "a{127}")); err != nil {
		t.Fatalf("512 positions over four atoms: %v", err)
	}
	for _, text := range []string{atoms(3, "a{127}") + ", a{128}(x, y)", atoms(1<<16, "a")} {
		_, err := Parse(text)
		if !errors.Is(err, rpq.ErrTooLarge) || !strings.Contains(err.Error(), "513 automaton positions") {
			t.Errorf("%.40q… of %d bytes: %v", text, len(text), err)
		}
	}
	q := MustParse(atoms(4, "a{127}"))
	q.Atoms = append(q.Atoms, q.Atoms[0])
	if err := q.Validate(); !errors.Is(err, rpq.ErrTooLarge) {
		t.Errorf("640 positions built in code: %v", err)
	}
}

func TestParseModes(t *testing.T) {
	q := MustParse("q(x, y) :- trail (a|b)*(x, y), simple c+(y, x), all d(x, x)")
	if q.Atoms[0].Mode != eval.Trail || q.Atoms[1].Mode != eval.Simple || q.Atoms[2].Mode != eval.All {
		t.Errorf("modes = %v %v %v", q.Atoms[0].Mode, q.Atoms[1].Mode, q.Atoms[2].Mode)
	}
	if !strings.Contains(q.String(), "trail") {
		t.Errorf("String should render modes: %s", q.String())
	}
}

func TestBooleanQuery(t *testing.T) {
	g := gen.BankEdgeLabeled()
	q := MustParse("q() :- Transfer(@a3, @a5)")
	res, err := Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("true boolean query should yield one empty row, got %d", len(res.Rows))
	}
	q = MustParse("q() :- owner(@a3, @a5)")
	res, err = Eval(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("false boolean query should yield no rows, got %d", len(res.Rows))
	}
}

func TestJoinAcrossAtoms(t *testing.T) {
	// Example 14's q1: pairs connected by transfers in both directions.
	g := gen.BankEdgeLabeled()
	res, err := Eval(g, MustParse("q(x, y) :- Transfer(x, y), Transfer(y, x)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct 2-cycles in the transfer topology: none (check by brute force).
	brute := 0
	for e1 := 0; e1 < g.NumEdges(); e1++ {
		for e2 := 0; e2 < g.NumEdges(); e2++ {
			a, b := g.Edge(e1), g.Edge(e2)
			if a.Label == "Transfer" && b.Label == "Transfer" &&
				a.Src == b.Tgt && a.Tgt == b.Src {
				brute++
			}
		}
	}
	if (brute > 0) != (len(res.Rows) > 0) {
		t.Errorf("join result (%d rows) disagrees with brute force (%d)", len(res.Rows), brute)
	}
}

func TestResultFormatSorted(t *testing.T) {
	g := gen.BankEdgeLabeled()
	res, err := Eval(g, MustParse("q(y) :- Transfer(@a3, y)"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format(g)
	lines := strings.Split(out, "\n")
	if len(lines) != 3 || lines[0] != "a2" || lines[1] != "a4" || lines[2] != "a5" {
		t.Errorf("Format should be sorted:\n%s", out)
	}
}

// TestJoinProjectPollsMeter: the reference join and its head projection
// poll the meter as they go, so a canceled query stops with pg.ErrCanceled
// and no rows however large the intermediate join is, and a poll records
// nothing on the meter.
func TestJoinProjectPollsMeter(t *testing.T) {
	const n = 40 // 40 × 40 = 1 600 joined tuples, well over pg.CheckInterval
	left := atomRelT{attrs: []string{"x", "y"}}
	right := atomRelT{attrs: []string{"y", "z"}}
	for i := 0; i < n; i++ {
		left.tuples = append(left.tuples, []OutValue{{Node: i}, {Node: 0}})
		right.tuples = append(right.tuples, []OutValue{{Node: 0}, {Node: i}})
	}
	if n*n <= pg.CheckInterval {
		t.Fatal("the join must outgrow one check interval")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	if _, err := joinRels(left, right, m); !errors.Is(err, pg.ErrCanceled) {
		t.Fatalf("join: err = %v, want ErrCanceled", err)
	}
	res, err := joinProject([]atomRelT{left, right}, []string{"x", "z"}, m)
	if !errors.Is(err, pg.ErrCanceled) || res != nil {
		t.Fatalf("joinProject: %v, %v; want ErrCanceled and no result", res, err)
	}
	if m.States() != 0 || m.Rows() != 0 {
		t.Fatalf("polls recorded states %d, rows %d", m.States(), m.Rows())
	}
	live := pg.NewMeter(context.Background(), pg.Budget{MaxRows: 1 << 20}, nil, nil)
	res, err = joinProject([]atomRelT{left, right}, []string{"x", "z"}, live)
	if err != nil || len(res.Rows) != n*n || live.Rows() != n*n || live.States() != 0 {
		t.Fatalf("live meter: err %v, %d rows, meter rows %d states %d", err, len(res.Rows), live.Rows(), live.States())
	}
}

// TestRowKeyBytes pins the reference join's key of a row: per cell N and
// the node index, or L and the list's key, then '|' — the bytes byKey
// orders result rows by.
func TestRowKeyBytes(t *testing.T) {
	row := []OutValue{
		{Node: 12},
		{IsList: true, List: gpath.List{graph.MakeEdgeObject(3), graph.MakeNodeObject(40)}},
		{Node: 0},
	}
	if got, want := string(appendRowKey([]byte("x"), row, []int{2, 0, 1})), "xN0|N12|LE3.N40.|"; got != want {
		t.Fatalf("row key %q, want %q", got, want)
	}
}
