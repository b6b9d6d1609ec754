package plan_test

import (
	"fmt"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/pg/plan"
	"graphquery/internal/rpq"
)

var sinkPlan pg.Plan

// BenchmarkPlannerNew is what the first RPQ after a commit pays to plan:
// a planner over a revision nobody has planned on yet — scalefree-20000
// under a 4 096-op overlay, the depth the store compacts at — and one plan
// from it. The statistics used to be collected by a scan of every edge,
// once per revision (~10 ms, 2.9 MB); they are a view now.
func BenchmarkPlannerNew(b *testing.B) {
	g := gen.ScaleFree(20000, 4, 1)
	for batch := 0; batch < 128; batch++ {
		muts := make([]graph.Mutation, 32)
		for i := range muts {
			k := batch*32 + i
			muts[i] = graph.Mutation{Op: graph.MutAddEdge, ID: fmt.Sprint("w", k), Label: "w",
				Src: fmt.Sprint("n", k*7919%20000), Tgt: fmt.Sprint("n", k*104729%20000)}
		}
		ng, err := g.Apply(muts)
		if err != nil {
			b.Fatal(err)
		}
		g = ng
	}
	nfa := rpq.Compile(rpq.MustParse("b b b"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPlan = plan.New(g).ForNFA(nfa, 1, 0)
	}
}
