package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// oneExpression is an RPQ on a graph, with two anchors a path of it joins.
type oneExpression struct {
	name, expr, cypher string
	listed             string // expr with a list variable z: an ℓ-RPQ whose erasure is expr
	g                  func() *graph.Graph
	from, to           graph.NodeID
	condenses          bool // an all-pairs sweep of expr buys the condensation
}

var oneExpressions = []oneExpression{
	{"random-40", "a*", "-[:(a)*]->", "(a^z)*",
		func() *graph.Graph { return gen.Random(40, 120, []string{"a", "b"}, 3) }, "v0", "v7", false},
	{"scalefree-400", "a* b b b a", "-[:(a)*]->-[:b]->-[:b]->-[:b]->-[:a]->", "(a^z)* b b b a",
		func() *graph.Graph { return gen.ScaleFree(400, 3, 7) }, "n0", "n3", true},
}

// requests serves the expression in every form the engine has for it: as
// a PMR, as pairs, through the Cypher fragment, as anchored shortest paths,
// as a CRPQ atom, as a relalg REACH atom, and as a CRPQ tier atom that
// binds a list variable.
func (c oneExpression) requests() []Request {
	return []Request{
		{Lang: "pmr", Query: c.expr, From: c.from, To: c.to, Mode: eval.Shortest, Limit: 3},
		{Query: c.expr},
		{Lang: "cypher", Query: c.cypher},
		{Query: c.expr, From: c.from, To: c.to, Mode: eval.Shortest},
		{Query: "q(x, y) :- " + c.expr + "(x, y)"},
		{Lang: "relalg", Query: "REACH(" + c.expr + ") AS (x, y)"},
		{Query: "q(y, z) :- shortest " + c.listed + "(@" + string(c.from) + ", y)"},
	}
}

// cachedProduct is the product the kernel cache holds for text at the
// engine's current revision, without counting a lookup.
func cachedProduct(e *Engine, text string) *eval.Product {
	e.kernels.mu.RLock()
	defer e.kernels.mu.RUnlock()
	if el, ok := e.kernels.byKey[text]; ok {
		if en := el.Value.(*cacheEntry); en.rev == e.GraphRev() {
			return en.plan.(*eval.Product)
		}
	}
	return nil
}

// rendered is what a reply says: its rows against g and its meter readings.
func rendered(g *graph.Graph, resp *Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s states=%d rows=%d\n", resp.Kind, resp.StatesVisited, resp.RowsProduced)
	for _, p := range resp.Pairs {
		fmt.Fprintf(&b, "%s %s\n", p[0], p[1])
	}
	for _, p := range resp.Paths {
		fmt.Fprintln(&b, p.Format(g))
	}
	if resp.Rows != nil {
		fmt.Fprintln(&b, resp.Rows.Format(g))
	}
	if resp.Rel != nil {
		fmt.Fprintln(&b, resp.Rel.Format(g))
	}
	return b.String()
}

// TestOneKernelPerExpression: on one revision, an expression gets one
// product kernel however it is served, every tier's plan runs on it, and a
// condensation one of them buys serves the rest; after SetGraph the next
// query gets a fresh kernel, bound to the new graph.
func TestOneKernelPerExpression(t *testing.T) {
	for _, c := range oneExpressions {
		t.Run(c.name, func(t *testing.T) {
			e := New(c.g())
			for _, req := range c.requests() {
				resp, err := e.Query(req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				if resp.Count() == 0 {
					t.Fatalf("%+v: no results", req)
				}
			}
			// pmr and pairs share the rpq plan; the five other plans each
			// asked for the kernel once and were handed the one cached — the
			// list-variable atom's lrpq.Plan on its erased expression too.
			if st := e.kernels.stats(); st.Misses != 1 || st.Hits != 5 || st.Size != 1 {
				t.Fatalf("kernel cache after serving %s seven ways: %+v; want 1 miss, 5 hits, 1 entry", c.expr, st)
			}
			if plans := e.CacheStats(); plans.Size != 6 {
				t.Fatalf("plan cache holds %d plans, want 6", plans.Size)
			}
			if built, want := e.RuntimeStats().CondensationsBuilt, map[bool]int64{true: 1}[c.condenses]; built != want {
				t.Fatalf("%d condensations built, want %d", built, want)
			}
			first := cachedProduct(e, c.expr)
			plan, err := e.planRPQ(e.cur.Load(), nil, c.expr)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil || plan.product != first {
				t.Fatalf("the rpq plan runs on %p, the kernel cache holds %p", plan.product, first)
			}

			g2 := c.g()
			e.SetGraph(g2, 2)
			if _, err := e.Query(c.requests()[4]); err != nil {
				t.Fatal(err)
			}
			second := cachedProduct(e, c.expr)
			if second == nil || second == first || second.G != g2 {
				t.Fatalf("after SetGraph the CRPQ atom ran on %p; want a fresh product of the new graph (was %p)", second, first)
			}
			if st := e.kernels.stats(); st.Misses != 2 || st.Size != 1 {
				t.Fatalf("kernel cache after SetGraph: %+v; want 2 misses, 1 entry", st)
			}
		})
	}
}

// TestSharedKernelConcurrentReplies: the seven forms of an expression served
// concurrently on one engine — so on one kernel, whichever of them builds
// its kept state — answer what they answer one at a time on an engine of
// their own, meter readings included.
func TestSharedKernelConcurrentReplies(t *testing.T) {
	for _, c := range oneExpressions {
		t.Run(c.name, func(t *testing.T) {
			g, reqs := c.g(), c.requests()
			want := make([]string, len(reqs))
			for i, req := range reqs {
				resp, err := New(g).Query(req)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = rendered(g, resp)
			}
			e := New(g)
			const rounds = 2
			got := make([]string, rounds*len(reqs))
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := e.Query(reqs[i%len(reqs)])
					if errs[i] = err; err == nil {
						got[i] = rendered(g, resp)
					}
				}(i)
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if w := want[i%len(reqs)]; got[i] != w {
					t.Errorf("%+v served concurrently:\n%s\nalone:\n%s", reqs[i%len(reqs)], got[i], w)
				}
			}
		})
	}
}
