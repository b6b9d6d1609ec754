package relalg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphquery/internal/graph"
)

// fmtCellKey is a cell's key written with fmt, the form tuples were
// deduplicated, sorted and joined by before keys were appended in place.
func fmtCellKey(c Cell) string {
	switch c.Kind {
	case CellNode:
		return fmt.Sprintf("N%d", c.Index)
	case CellEdge:
		return fmt.Sprintf("E%d", c.Index)
	default:
		return fmt.Sprintf("V%d:%s", c.Value.Kind(), c.Value.String())
	}
}

// TestTupleKeyBytes pins the bytes of cell and tuple keys — the keys that
// deduplicate a relation, order Sorted and bucket Join — for node and edge
// cells and every value kind.
func TestTupleKeyBytes(t *testing.T) {
	cells := []Cell{
		NodeCell(0), NodeCell(12), EdgeCell(7), EdgeCell(1234),
		ValueCell(graph.Null()), ValueCell(graph.Bool(true)), ValueCell(graph.Bool(false)),
		ValueCell(graph.Int(-42)), ValueCell(graph.Int(math.MaxInt64)),
		ValueCell(graph.Float(2.5)), ValueCell(graph.Float(1e21)), ValueCell(graph.Float(math.Inf(1))),
		ValueCell(graph.Float(math.NaN())),
		ValueCell(graph.Str("")), ValueCell(graph.Str("a|b:c")),
	}
	var want strings.Builder
	for _, c := range cells {
		if got := string(c.appendKey(nil)); got != fmtCellKey(c) {
			t.Errorf("cell key %q, want %q", got, fmtCellKey(c))
		}
		want.WriteString(fmtCellKey(c) + "|")
	}
	if got := tupleKey(cells); got != want.String() {
		t.Errorf("tuple key %q, want %q", got, want.String())
	}
	if got := tupleKey([]Cell{NodeCell(3), ValueCell(graph.Int(5)), ValueCell(graph.Str("x"))}); got != "N3|V2:5|V4:x|" {
		t.Errorf("tuple key %q", got)
	}
}

// TestKeyOrder: Sorted orders tuples by the bytes of their keys, so "N10|"
// comes before "N1|" ('0' sorts before '|') and "N2|", and a join matches
// value cells by kind and text.
func TestKeyOrder(t *testing.T) {
	r := MustNewRelation("x", "v")
	for _, n := range []int{2, 10, 1} {
		r.MustAdd(NodeCell(n), ValueCell(graph.Int(int64(n))))
	}
	r.MustAdd(NodeCell(2), ValueCell(graph.Int(2))) // a duplicate
	var got []string
	for _, tu := range r.Sorted() {
		got = append(got, tupleKey(tu))
	}
	if want := "[N10|V2:10| N1|V2:1| N2|V2:2|]"; fmt.Sprint(got) != want {
		t.Errorf("Sorted: %v, want %s", got, want)
	}
	s := MustNewRelation("v", "w")
	s.MustAdd(ValueCell(graph.Int(10)), NodeCell(0))
	s.MustAdd(ValueCell(graph.Float(10)), NodeCell(1)) // another kind: no match
	j, err := r.Join(s)
	if err != nil || j.Len() != 1 || !j.Contains(NodeCell(10), ValueCell(graph.Int(10)), NodeCell(0)) {
		t.Errorf("join: %v %v", j.Sorted(), err)
	}
}
