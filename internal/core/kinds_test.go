package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// kindSamples holds a request for every row of the table of served kinds
// (the RPQ row twice: unanchored and anchored).
var kindSamples = []struct {
	kind QueryKind
	req  Request
}{
	{KindRPQ, Request{Query: "a b*"}},
	{KindRPQ, Request{Query: "a*", From: "v0", To: "v1", Mode: eval.Shortest}},
	{KindDLRPQ, Request{Query: "() [a] ()", From: "v0", To: "v1", Mode: eval.Shortest}},
	{KindCRPQ, Request{Query: "q(x, z) :- a(x, y), b(y, z)"}},
	{KindTwoWay, Request{Lang: "2rpq", Query: "a ~b"}},
	{KindGQL, Request{Lang: "gql", Query: "(x)-[:a]->(y)"}},
	{KindCoreGQL, Request{Lang: "coregql", Query: "(x)-->(y)"}},
	{KindCypher, Request{Lang: "cypher", Query: "-[:a]->-[:b]->"}},
	{KindPMR, Request{Lang: "pmr", Query: "a*", From: "v0", To: "v1", Limit: 3}},
	{KindSpanner, Request{Lang: "spanner", Query: "x{a*}y{b*}", Doc: "aab"}},
	{KindRelAlg, Request{Lang: "relalg", Query: "REACH(a) AS (x, y)"}},
	{KindBag, Request{Lang: "bag", Query: "a a"}},
}

// TestEveryKindStages: every row of the table reads its text as a "parse"
// stage inside the plan-cache build, so a cold query records one and a warm
// query (a plan-cache hit) records none — nor a compile or plan stage — and
// every row records its evaluation stage, with no sink, with a BatchSink and
// with a sink that has only Row. The evaluation stage is "kernel", except
// for dl-RPQs, whose search and path building interleave under one
// "enumerate" stage.
func TestEveryKindStages(t *testing.T) {
	e := New(gen.Random(30, 120, []string{"a", "b"}, 5))
	ctx := context.Background()
	served := make([]bool, len(kinds))
	for _, s := range kindSamples {
		served[s.kind] = true
		cold, err := e.QueryCtx(ctx, s.req)
		if err != nil {
			t.Fatalf("%+v: %v", s.req, err)
		}
		if !hasSpan(cold.Spans, "parse") {
			t.Errorf("%+v: cold spans %v, want a parse span", s.req, spanNames(cold.Spans))
		}
		want := "kernel"
		if s.kind == KindDLRPQ {
			want = "enumerate"
		}
		for _, sink := range []struct {
			name string
			sink Sink
		}{{"no sink", nil}, {"BatchSink", &byteSink{}}, {"Row-only sink", &countingSink{}}} {
			resp, err := e.QueryStream(ctx, s.req, sink.sink)
			if err != nil {
				t.Fatalf("%+v, %s: %v", s.req, sink.name, err)
			}
			names := spanNames(resp.Spans)
			if slices.Contains(names, "parse") || slices.Contains(names, "compile") || slices.Contains(names, "plan") {
				t.Errorf("%+v, %s: warm spans %v read the text again", s.req, sink.name, names)
			}
			if !slices.Contains(names, want) {
				t.Errorf("%+v, %s: warm spans %v, want a %s span", s.req, sink.name, names, want)
			}
			if result := kinds[s.kind].result; resp.Kind != result && !(s.req.From != "" && resp.Kind == "paths") {
				t.Errorf("%+v, %s: kind %q, the row's result is %q", s.req, sink.name, resp.Kind, result)
			}
		}
	}
	for k, ok := range served {
		if !ok {
			t.Errorf("row %d (lang %q) has no sample", k, kinds[k].lang)
		}
	}
}

// TestResultKinds: the result kinds are read from the table, in row order.
func TestResultKinds(t *testing.T) {
	want := []string{"pairs", "paths", "rows", "matches", "spans", "relation", "bag"}
	if got := ResultKinds(); !slices.Equal(got, want) {
		t.Errorf("ResultKinds() = %v, want %v", got, want)
	}
}

// TestPMRModes: a path-multiset representation holds all paths or the
// shortest ones, so the pmr row refuses simple and trail rather than answer
// them with walks that repeat nodes. On s→u, u→s, u→t, `a*` in mode all
// has walks through the cycle; the one simple path is what the RPQ row
// answers in mode simple.
func TestPMRModes(t *testing.T) {
	b := graph.NewBuilder()
	for _, n := range []graph.NodeID{"s", "u", "t"} {
		b.AddNode(n, "N", nil)
	}
	b.AddEdge("e1", "a", "s", "u", nil)
	b.AddEdge("e2", "a", "u", "s", nil)
	b.AddEdge("e3", "a", "u", "t", nil)
	e := New(b.MustBuild())
	req := Request{Lang: "pmr", Query: "a*", From: "s", To: "t", Limit: 4}
	for _, mode := range []eval.Mode{eval.Simple, eval.Trail} {
		req.Mode = mode
		if _, err := e.Query(req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("pmr in mode %s: err %v, want ErrBadQuery", mode, err)
		}
	}
	req.Mode = eval.All
	all, err := e.Query(req)
	if err != nil || len(all.Paths) != 4 {
		t.Fatalf("pmr in mode all: %d paths, err %v, want the limit's 4", len(all.Paths), err)
	}
	simple, err := e.Query(Request{Query: "a*", From: "s", To: "t", Mode: eval.Simple, Limit: 4})
	if err != nil || len(simple.Paths) != 1 || simple.Paths[0].Format(e.Graph()) != "path(s, e1, u, e3, t)" {
		t.Fatalf("rpq in mode simple: %v, err %v, want path(s, e1, u, e3, t) alone", simple.Paths, err)
	}
}
