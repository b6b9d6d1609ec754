package crossval_test

import (
	"reflect"
	"sort"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
	"graphquery/internal/twoway"
)

// This file differentially tests the unified product-graph runtime
// (internal/pg) against slow reference oracles: straightforward map-based
// searches that scan every edge and interpret guards symbolically, sharing
// no code with the kernel. Every plan the planner can choose — forward,
// backward, sequential, parallel — must reproduce the oracle's
// answer byte-for-byte on random graphs.

type prodState struct{ n, q int }

// oracleRPQPairs is the reference semantics of ⟦R⟧_G: per-source BFS over
// (node, state) pairs, scanning the full edge list at every expansion.
func oracleRPQPairs(g *graph.Graph, a *automata.NFA) [][2]int {
	var out [][2]int
	for u := 0; u < g.NumNodes(); u++ {
		acc := map[int]bool{}
		seen := map[prodState]bool{{u, a.Start}: true}
		frontier := []prodState{{u, a.Start}}
		for len(frontier) > 0 {
			cur := frontier[0]
			frontier = frontier[1:]
			if a.Accept[cur.q] {
				acc[cur.n] = true
			}
			for ei := 0; ei < g.NumEdges(); ei++ {
				e := g.Edge(ei)
				if e.Src != cur.n {
					continue
				}
				for _, t := range a.Trans[cur.q] {
					if !t.Guard.Matches(e.Label) {
						continue
					}
					next := prodState{e.Tgt, t.To}
					if !seen[next] {
						seen[next] = true
						frontier = append(frontier, next)
					}
				}
			}
		}
		vs := make([]int, 0, len(acc))
		for v := range acc {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// oracleTwowayPairs is the same reference search over a two-way automaton:
// Back transitions scan edges target→source.
func oracleTwowayPairs(g *graph.Graph, a *twoway.TNFA) [][2]int {
	var out [][2]int
	for u := 0; u < g.NumNodes(); u++ {
		acc := map[int]bool{}
		seen := map[prodState]bool{{u, a.Start}: true}
		frontier := []prodState{{u, a.Start}}
		for len(frontier) > 0 {
			cur := frontier[0]
			frontier = frontier[1:]
			if a.Accept[cur.q] {
				acc[cur.n] = true
			}
			for ei := 0; ei < g.NumEdges(); ei++ {
				e := g.Edge(ei)
				for _, t := range a.Trans[cur.q] {
					if !t.Guard.Matches(e.Label) {
						continue
					}
					var next prodState
					if t.Back {
						if e.Tgt != cur.n {
							continue
						}
						next = prodState{e.Src, t.To}
					} else {
						if e.Src != cur.n {
							continue
						}
						next = prodState{e.Tgt, t.To}
					}
					if !seen[next] {
						seen[next] = true
						frontier = append(frontier, next)
					}
				}
			}
		}
		vs := make([]int, 0, len(acc))
		for v := range acc {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		for _, v := range vs {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// TestKernelPlansAgreeWithRPQOracle runs a suite of RPQs — positive,
// alternating, and co-finite (negated) guards — through the oracle and
// through every kernel plan on random graphs.
func TestKernelPlansAgreeWithRPQOracle(t *testing.T) {
	queries := []string{
		"a",
		"a b*",
		"(a | b)* c",
		"!{a}",
		"(!{b})* a",
		"a* b* c*",
		"(a b)+ | c",
	}
	plans := []struct {
		name string
		plan pg.Plan
	}{
		{"forward", pg.Plan{}},
		{"backward", pg.Plan{Backward: true}},
		{"forward-parallel", pg.Plan{Workers: 4}},
		{"backward-parallel", pg.Plan{Backward: true, Workers: 4}},
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(24, 90, []string{"a", "b", "c"}, int64(trial)*31+5)
		for _, q := range queries {
			expr, err := rpq.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			nfa := rpq.Compile(expr)
			want := oracleRPQPairs(g, nfa)
			p := eval.NewProduct(g, nfa)
			for _, pc := range plans {
				got, err := eval.PairsProduct(p, eval.Options{Plan: pc.plan})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d query %q plan %s: kernel %v != oracle %v",
						trial, q, pc.name, got, want)
				}
			}
		}
	}
}

// TestKernelAgreesWithTwowayOracle runs 2RPQs with inverse atoms through
// the oracle and through the kernel's Back-flagged machine, sequentially
// and in parallel.
func TestKernelAgreesWithTwowayOracle(t *testing.T) {
	queries := []string{
		"~a",
		"a ~b",
		"(a | ~b)*",
		"~a ~b",
		"(~a)* b",
	}
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(20, 70, []string{"a", "b"}, int64(trial)*17+3)
		for _, q := range queries {
			expr, err := twoway.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleTwowayPairs(g, twoway.Compile(expr))
			for _, par := range []int{1, 4} {
				got, err := twoway.PairsMeterOpt(g, expr, nil, twoway.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d query %q parallelism %d: kernel %v != oracle %v",
						trial, q, par, got, want)
				}
			}
		}
	}
}
