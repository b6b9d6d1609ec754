package lrpq

import (
	"context"
	"fmt"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// hopsFrom returns every node's distance from src over edges labelled lab
// (−1: unreachable): the benchmark's way of picking targets at a set depth.
func hopsFrom(g *graph.Graph, lab string, src int) []int {
	lid, _ := g.LabelID(lab)
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		for _, ei := range g.OutWithLabel(queue[0], lid) {
			if w := g.EdgeTgt(ei); dist[w] < 0 {
				dist[w] = dist[queue[0]] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// BenchmarkBetween is the callable layer benchmark of anchored shortest-path
// queries: `a*` on the served benchmark's short-reads graph to targets two,
// five and eight hops away and to one that cannot be reached, and the
// 2²⁰-path Figure 5 graph cut to 1 and to 1 000 answers. "plan" rows run on
// a compiled Plan, as the engine's plan cache serves them; "oneshot" rows
// call EvalBetween, which compiles per call, as bench/'s oracle and trace
// and the CRPQ reference do. states/op is the meter's reading: the search
// from both ends, the DAG marking and the walk.
func BenchmarkBetween(b *testing.B) {
	sf := gen.ScaleFree(20000, 4, 1)
	// A source with something eight hops away; targets are the first node
	// found at each depth.
	src, dist := 0, []int(nil)
	for ; src < sf.NumNodes(); src++ {
		dist = hopsFrom(sf, "a", src)
		far := 0
		for _, d := range dist {
			far = max(far, d)
		}
		if far >= 8 {
			break
		}
	}
	at := func(d int) int {
		for v, dv := range dist {
			if dv == d {
				return v
			}
		}
		b.Fatalf("no node %d hops from n%d", d, src)
		return -1
	}
	f5 := gen.Figure5(20)
	cases := []struct {
		name     string
		g        *graph.Graph
		expr     string
		src, dst int
		limit    int
		want     int // answers; −1: at least one
	}{
		{"scalefree-20000/2-hops", sf, "a*", src, at(2), 0, -1},
		{"scalefree-20000/5-hops", sf, "a*", src, at(5), 0, -1},
		{"scalefree-20000/8-hops", sf, "a*", src, at(8), 0, -1},
		{"scalefree-20000/unreachable", sf, "a*", src, at(-1), 0, 0},
		{"figure5-20/limit-1", f5, "(a^z)*", f5.MustNode("s"), f5.MustNode("t"), 1, 1},
		{"figure5-20/limit-1000", f5, "(a^z)*", f5.MustNode("s"), f5.MustNode("t"), 1000, 1000},
	}
	for _, c := range cases {
		e := MustParse(c.expr)
		plan := newPlan(c.g, e)
		for _, form := range []string{"plan", "oneshot"} {
			b.Run(fmt.Sprintf("%s/%s", c.name, form), func(b *testing.B) {
				b.ReportAllocs()
				m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 40}, nil, nil)
				opts := Options{Limit: c.limit, Meter: m}
				for i := 0; i < b.N; i++ {
					var pbs []gpath.PathBinding
					var err error
					if form == "plan" {
						pbs, err = plan.Between(c.src, c.dst, eval.Shortest, opts)
					} else {
						pbs, err = EvalBetween(c.g, e, c.src, c.dst, eval.Shortest, opts)
					}
					if err != nil || len(pbs) != c.want && (c.want >= 0 || len(pbs) == 0) {
						b.Fatalf("%d answers, err %v; want %d", len(pbs), err, c.want)
					}
				}
				b.ReportMetric(float64(m.States())/float64(b.N), "states/op")
			})
		}
	}
}
