package crpq

import (
	"testing"

	"graphquery/internal/gen"
)

// BenchmarkPlanSweep is the sweep stage alone — Plan.Sweep, no join — for
// the four shapes of bench/'s cyclic-crpq workload on scalefree-800: the
// counterpart of wcoj.BenchmarkJoin, which is the join alone. sweeps/op is
// the number of kernel sweeps an evaluation runs, one per distinct
// (expression, source) however many atoms read it.
func BenchmarkPlanSweep(b *testing.B) {
	g, err := gen.Named("scalefree-800")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, query string }{
		{"chain", "q(x,y,z,w) :- b(x,y), a(y,z), b(z,w)"},
		{"triangle", "q(x,y,z) :- a(x,y), a(y,z), a(z,x)"},
		{"four-cycle", "q(x,y,z,w) :- a(x,y), a(y,z), a(z,w), b(w,x)"},
		{"triangle-aa", "q(x,y,z) :- a a(x,y), a(y,z), a(z,x)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := Compile(g, MustParse(c.query), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Sweep(Options{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(p.sweeps)), "sweeps/op")
		})
	}
}
