package relalg

import (
	"errors"
	"strings"
	"testing"

	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

func rel(t *testing.T, attrs []string, tuples ...[]Cell) *Relation {
	t.Helper()
	r, err := NewRelation(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := r.Add(tp...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestNewRelationErrors(t *testing.T) {
	if _, err := NewRelation("x", "x"); err == nil {
		t.Error("duplicate attributes should fail")
	}
	r := MustNewRelation("x")
	if err := r.Add(NodeCell(0), NodeCell(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestSetSemantics(t *testing.T) {
	r := rel(t, []string{"x"},
		[]Cell{NodeCell(1)},
		[]Cell{NodeCell(1)}, // duplicate
		[]Cell{NodeCell(2)},
	)
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2 (set semantics)", r.Len())
	}
	if !r.Contains(NodeCell(1)) || r.Contains(NodeCell(9)) {
		t.Error("Contains wrong")
	}
}

func TestCellEquality(t *testing.T) {
	if NodeCell(1).Equal(EdgeCell(1)) {
		t.Error("node and edge cells differ even with the same index")
	}
	if !ValueCell(graph.Int(2)).Equal(ValueCell(graph.Float(2))) {
		t.Error("numeric value cells compare numerically")
	}
	if ValueCell(graph.Str("a")).Equal(ValueCell(graph.Str("b"))) {
		t.Error("different strings must differ")
	}
}

func TestSelectProject(t *testing.T) {
	r := rel(t, []string{"x", "v"},
		[]Cell{NodeCell(1), ValueCell(graph.Int(5))},
		[]Cell{NodeCell(2), ValueCell(graph.Int(9))},
	)
	sel := r.Select(func(tp []Cell) bool { return tp[1].Value.Compare(graph.Int(6)) > 0 })
	if sel.Len() != 1 || !sel.Contains(NodeCell(2), ValueCell(graph.Int(9))) {
		t.Errorf("Select wrong: %d tuples", sel.Len())
	}
	proj, err := r.Project("v")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 2 || proj.Arity() != 1 {
		t.Errorf("Project wrong: %d tuples, arity %d", proj.Len(), proj.Arity())
	}
	if _, err := r.Project("nope"); err == nil {
		t.Error("projection on unknown attribute should fail")
	}
	// Projection collapses duplicates.
	r2 := rel(t, []string{"x", "v"},
		[]Cell{NodeCell(1), ValueCell(graph.Int(5))},
		[]Cell{NodeCell(2), ValueCell(graph.Int(5))},
	)
	proj2, _ := r2.Project("v")
	if proj2.Len() != 1 {
		t.Errorf("projection should dedup: %d", proj2.Len())
	}
}

func TestRename(t *testing.T) {
	r := rel(t, []string{"x"}, []Cell{NodeCell(1)})
	r2, err := r.Rename("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Col("y"); !ok {
		t.Error("rename target missing")
	}
	if _, ok := r2.Col("x"); ok {
		t.Error("rename source still present")
	}
	if _, err := r.Rename("zzz", "y"); err == nil {
		t.Error("rename of unknown attribute should fail")
	}
}

func TestUnionDiff(t *testing.T) {
	a := rel(t, []string{"x"}, []Cell{NodeCell(1)}, []Cell{NodeCell(2)})
	b := rel(t, []string{"x"}, []Cell{NodeCell(2)}, []Cell{NodeCell(3)})
	u, err := a.Union(b)
	if err != nil || u.Len() != 3 {
		t.Errorf("Union = %d tuples, err %v; want 3", u.Len(), err)
	}
	d, err := a.Diff(b)
	if err != nil || d.Len() != 1 || !d.Contains(NodeCell(1)) {
		t.Errorf("Diff wrong: %d tuples, err %v", d.Len(), err)
	}
	c := rel(t, []string{"y"}, []Cell{NodeCell(1)})
	if _, err := a.Union(c); err == nil {
		t.Error("union schema mismatch should fail")
	}
	if _, err := a.Diff(c); err == nil {
		t.Error("diff schema mismatch should fail")
	}
}

func TestNaturalJoin(t *testing.T) {
	// R(x, y) ⋈ S(y, z)
	r := rel(t, []string{"x", "y"},
		[]Cell{NodeCell(1), NodeCell(10)},
		[]Cell{NodeCell(2), NodeCell(20)},
	)
	s := rel(t, []string{"y", "z"},
		[]Cell{NodeCell(10), NodeCell(100)},
		[]Cell{NodeCell(10), NodeCell(101)},
		[]Cell{NodeCell(30), NodeCell(300)},
	)
	j, err := r.Join(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Attrs(); len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Errorf("join attrs = %v", got)
	}
	if j.Len() != 2 {
		t.Errorf("join size = %d, want 2", j.Len())
	}
	if !j.Contains(NodeCell(1), NodeCell(10), NodeCell(100)) ||
		!j.Contains(NodeCell(1), NodeCell(10), NodeCell(101)) {
		t.Error("join tuples wrong")
	}
}

func TestJoinNoSharedIsProduct(t *testing.T) {
	r := rel(t, []string{"x"}, []Cell{NodeCell(1)}, []Cell{NodeCell(2)})
	s := rel(t, []string{"y"}, []Cell{NodeCell(10)})
	j, err := r.Join(s)
	if err != nil || j.Len() != 2 {
		t.Errorf("cross join = %d, err %v", j.Len(), err)
	}
	p, err := r.Product(s)
	if err != nil || p.Len() != 2 {
		t.Errorf("Product = %d, err %v", p.Len(), err)
	}
	if _, err := r.Product(r); err == nil {
		t.Error("Product with shared attributes should fail")
	}
}

func TestSortedAndFormat(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("e", "a", "u", "v", nil).
		MustBuild()
	r := rel(t, []string{"x", "e", "val"},
		[]Cell{NodeCell(1), EdgeCell(0), ValueCell(graph.Str("hi"))},
		[]Cell{NodeCell(0), EdgeCell(0), ValueCell(graph.Int(7))},
	)
	sorted := r.Sorted()
	if len(sorted) != 2 || sorted[0][0].Index != 0 {
		t.Error("Sorted order wrong")
	}
	out := r.Format(g)
	if !strings.Contains(out, "x") || !strings.Contains(out, "u") || !strings.Contains(out, "hi") {
		t.Errorf("Format output missing content:\n%s", out)
	}
	// Formatting without a graph falls back to indices.
	out2 := r.Format(nil)
	if !strings.Contains(out2, "node#0") {
		t.Errorf("nil-graph Format: %s", out2)
	}
}

// TestParseQueryNestingBound: parenthesized queries, PROJECTs and RENAMEs
// nest at most rpq.MaxNesting deep; one more, or half a megabyte of '(', is
// refused once the parser reaches the bound.
func TestParseQueryNestingBound(t *testing.T) {
	const reach = "REACH(a) AS (x, y)"
	groups := func(depth int) string {
		return strings.Repeat("(", depth) + reach + strings.Repeat(")", depth)
	}
	projects := func(depth int) string {
		return strings.Repeat("PROJECT(", depth) + reach + strings.Repeat("; x)", depth)
	}
	renames := func(depth int) string {
		return strings.Repeat("RENAME(", depth) + reach + strings.Repeat("; x -> x)", depth)
	}
	for _, nested := range []func(int) string{groups, projects, renames} {
		if _, err := ParseQuery(nested(rpq.MaxNesting)); err != nil {
			t.Fatalf("%d deep: %v", rpq.MaxNesting, err)
		}
		text := nested(rpq.MaxNesting + 1)
		if _, err := ParseQuery(text); err == nil || !strings.Contains(err.Error(), "nest 1001 deep") {
			t.Errorf("%.20s… one past the bound: %v", text, err)
		}
	}
	if _, err := ParseQuery(strings.Repeat("(", 1<<19)); err == nil || !strings.Contains(err.Error(), "the bound is 1000") {
		t.Errorf("half a megabyte of '(': %v", err)
	}
}

// TestParseQueryPositionsBound: the bound on automaton positions is on the
// whole query, not on each REACH atom — 512 spread over four atoms are
// accepted, and one more atom of one position is refused, whichever
// operator joins it.
func TestParseQueryPositionsBound(t *testing.T) {
	atom := "REACH(" + strings.Repeat("a ", 128) + ") AS (x, y)"
	full := strings.Repeat(atom+" UNION ", 3) + atom
	if _, err := ParseQuery(full); err != nil {
		t.Fatalf("512 positions over four atoms: %v", err)
	}
	for _, op := range []string{"UNION", "JOIN", "DIFF"} {
		text := full + " " + op + " REACH(b) AS (x, y)"
		_, err := ParseQuery(text)
		if !errors.Is(err, rpq.ErrTooLarge) || !strings.Contains(err.Error(), "513 automaton positions") {
			t.Errorf("513 positions, the last after %s: %v", op, err)
		}
	}
}
