package crpq

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// fuzzGraph is the fixed graph FuzzParse evaluates on: twelve nodes n0…n11,
// an a-labelled and a b-labelled edge out of each, laid out so that both
// labels have cycles, self-loops and nodes of in-degree zero.
func fuzzGraph() *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("n%d", i)) }
	for i := 0; i < 12; i++ {
		b.AddNode(id(i), "", nil)
	}
	for i := 0; i < 12; i++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("a%d", i)), "a", id(i), id((i*5+2)%12), nil)
		b.AddEdge(graph.EdgeID(fmt.Sprintf("b%d", i)), "b", id(i), id((i*i+3)%12), nil)
	}
	return b.MustBuild()
}

// FuzzParse: no input panics the CRPQ parser; what parses prints to a text
// that parses back to the same query; and the served evaluator returns
// exactly what the reference returns on fuzzGraph — rows, row order, and the
// states and rows charged — or fails with the same error (Parse itself
// refuses automata too large to run: Validate). Both run under one budget,
// which stops a query whose paths blow up in both the same way.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// bench/'s cyclic-crpq texts and the two anchored reads of short-reads
		"q(x,y,z,w) :- b(x,y), a(y,z), b(z,w)",
		"q(x,y,z) :- a(x,y), a(y,z), a(z,x)",
		"q(x,y,z,w) :- a(x,y), a(y,z), a(z,w), b(w,x)",
		"q(x,y,z) :- a a(x,y), a(y,z), a(z,x)",
		"q(y) :- a(@n0, y)",
		"q(y) :- a a(@n0, y)",
		// PAPER.md Example 13
		"q(x1, x2, x3) :- Transfer(x1, x2), Transfer(x1, x3), Transfer(x2, x3)",
		"q(x, x1, x2) :- owner(y, x1), isBlocked(y, x2), Transfer Transfer? (x, y)",
		// README
		"q(x, y) :- Transfer(x, y), Transfer+(y, x)",
		"q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)",
		// shapes the generated differential draws
		"q() :- a*(x, x), b(@n3, @n6)",
		"q(y, y) :- (a|b){1,2}(x, y), !{a}(y, @n11)",
		"q(x) :- trail (a|b)* (x, @n3)",
		"q(z) :- () {[a][k < 5] ()}+ (x, y), a(y, x)",
		// tier atoms: list-variable heads, modes, dl-atoms
		"q(x, z) :- shortest (a^z)+(x, y), b(y, x)",
		"q(z, y) :- (a^z) b(@n0, y)",
		"q(x, z, w) :- shortest (a^z)(x, y), simple (b^w)+(y, x)",
		"q(x, y) :- simple (a|b)+(x, y), a(y, @n2)",
		"q(x) :- trail a b(x, x)",
		"q(x, y) :- () [a] () [b] () (x, y), a(y, z)",
		"q(x, z) :- shortest () [a^z] () (x, @n5)",
	} {
		f.Add(s)
	}
	g := fuzzGraph()
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parses, but what it prints as, %q, does not: %v", text, printed, err)
		}
		if back.String() != printed {
			t.Fatalf("%q prints as %q, which parses to %q", text, printed, back)
		}
		budget := pg.Budget{MaxStates: 1 << 20, MaxRows: 1 << 16}
		rm := pg.NewMeter(context.Background(), budget, nil, nil)
		ref, refErr := Eval(g, q, Options{AtomMaxLen: 3, Parallelism: 1, Meter: rm})
		m := pg.NewMeter(context.Background(), budget, nil, nil)
		var got *Result
		plan, err := Compile(g, q, kernels(g, nil))
		if err == nil {
			got, err = plan.Eval(Options{AtomMaxLen: 3, Parallelism: 1, Meter: m})
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: served (%v, %v), reference (%v, %v)", text, got, err, ref, refErr)
		}
		if err == nil && (m.States() != rm.States() || m.Rows() != rm.Rows()) {
			t.Fatalf("%q: served charged %d states, %d rows; the reference %d, %d", text, m.States(), m.Rows(), rm.States(), rm.Rows())
		}
	})
}
