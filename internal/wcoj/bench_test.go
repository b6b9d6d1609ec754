package wcoj

import (
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// BenchmarkJoin is the join alone, over pre-swept relations: the four
// shapes of bench/'s cyclic-crpq workload on scalefree-800, each iteration
// building its relations — one per distinct expression, as crpq.Plan does —
// from the kept sweep output (the exact-size copy, offsets, and whatever
// target-major index the order needs) and enumerating every assignment.
// The sweeps that produce the runs are outside the loop.
func BenchmarkJoin(b *testing.B) {
	g, err := gen.Named("scalefree-800")
	if err != nil {
		b.Fatal(err)
	}
	swept := map[string][]pg.Runs{}
	for _, expr := range []string{"a", "b", "a a"} {
		kern := eval.CompileProduct(g, rpq.MustParse(expr)).Kernel()
		err := kern.SweepAll(1, nil, pg.Plan{}, false, func(part pg.Runs) error {
			swept[expr] = append(swept[expr], part)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	type atom struct {
		expr string
		x, y int
	}
	for _, c := range []struct {
		name  string
		atoms []atom
	}{
		{"chain", []atom{{"b", 0, 1}, {"a", 1, 2}, {"b", 2, 3}}},
		{"triangle", []atom{{"a", 0, 1}, {"a", 1, 2}, {"a", 2, 0}}},
		{"four-cycle", []atom{{"a", 0, 1}, {"a", 1, 2}, {"a", 2, 3}, {"b", 3, 0}}},
		{"triangle-aa", []atom{{"a a", 0, 1}, {"a", 1, 2}, {"a", 2, 0}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				q := &Query{}
				rels := map[string]*Rel{}
				for _, a := range c.atoms {
					r := rels[a.expr]
					if r == nil {
						r = NewRel(g.NumNodes())
						for _, part := range swept[a.expr] {
							r.Append(part)
						}
						r.Seal()
						rels[a.expr] = r
					}
					q.Atoms = append(q.Atoms, Atom{r, a.x, a.y})
					q.NumVars = max(q.NumVars, a.x+1, a.y+1)
				}
				rows = 0
				if err := q.Enumerate(nil, func([]int32) error { rows++; return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
