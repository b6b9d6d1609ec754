package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/obs"
)

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func hasSpan(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestQueryCtxTrace verifies the span model of §10: a cold RPQ records
// parse → compile → plan → kernel (with no sink, pairs are rendered to IDs
// inside the kernel span as they leave the fan-out — there is no enumerate
// stage; TestStreamedPairsStages covers the sink), a warm
// one skips the compilation stages, the kernel span carries the meter
// deltas, and the chosen plan line is surfaced on the Response.
func TestQueryCtxTrace(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	cold, err := e.QueryCtx(context.Background(), Request{Query: "a a*"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parse", "compile", "plan", "kernel"} {
		if !hasSpan(cold.Spans, name) {
			t.Errorf("cold query missing %q span, got %v", name, spanNames(cold.Spans))
		}
	}
	if !strings.Contains(cold.Plan, "dir=") {
		t.Errorf("Response.Plan = %q, want a kernel plan line", cold.Plan)
	}
	if got := obs.TotalStates(cold.Spans); got != cold.StatesVisited {
		t.Errorf("span states = %d, meter states = %d", got, cold.StatesVisited)
	}
	if got := obs.TotalRows(cold.Spans); got != cold.RowsProduced {
		t.Errorf("span rows = %d, meter rows = %d", got, cold.RowsProduced)
	}

	warm, err := e.QueryCtx(context.Background(), Request{Query: "a a*"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parse", "compile", "plan"} {
		if hasSpan(warm.Spans, name) {
			t.Errorf("warm query recorded a %q span (plan-cache hit should skip compilation), got %v",
				name, spanNames(warm.Spans))
		}
	}
	if !hasSpan(warm.Spans, "kernel") {
		t.Errorf("warm query missing kernel span, got %v", spanNames(warm.Spans))
	}
	if warm.Plan != cold.Plan {
		t.Errorf("plan line changed between cold and warm: %q vs %q", cold.Plan, warm.Plan)
	}
}

// TestQueryCtxTraceSurvivesError: a caller-supplied trace keeps the spans
// and the plan attribute even when the query errs and no Response exists —
// what the slow-query log relies on for timed-out/over-budget queries.
func TestQueryCtxTraceSurvivesError(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	tr := obs.NewTrace()
	_, err := e.QueryCtx(context.Background(), Request{
		Query:  "a a*",
		Budget: eval.Budget{MaxStates: 64},
		Trace:  tr,
	})
	if !errors.Is(err, eval.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if !hasSpan(tr.Spans(), "kernel") {
		t.Errorf("errored query lost its kernel span, got %v", spanNames(tr.Spans()))
	}
	if !strings.Contains(tr.Attr("plan"), "dir=") {
		t.Errorf("errored query lost its plan attribute: %q", tr.Attr("plan"))
	}
}

// TestQueryCtxTraceOtherKinds pins span coverage for the non-RPQ dispatch
// arms: 2RPQ and CRPQ queries, and anchored path queries.
func TestQueryCtxTraceOtherKinds(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"2rpq", Request{Query: "Transfer ~Transfer", Lang: "2rpq"}, "kernel"},
		{"crpq", Request{Query: "q(x, y) :- Transfer(x, y)"}, "kernel"},
		{"paths", Request{Query: "Transfer Transfer", From: "a1", To: "a3", Mode: eval.Shortest}, "enumerate"},
	}
	for _, tc := range cases {
		resp, err := e.QueryCtx(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !hasSpan(resp.Spans, tc.want) {
			t.Errorf("%s: missing %q span, got %v", tc.name, tc.want, spanNames(resp.Spans))
		}
	}
}

// TestCRPQStages: a CRPQ inside the kernel fragment is compiled once per
// (revision, text) and evaluated in two stages. Cold, it records parse →
// compile → kernel (the atom sweeps: all the states, the relations' rows) →
// enumerate (join, projection, order: the output rows); warm, a plan-cache
// hit, only the last two; after SetGraph it compiles again. Analyze shows
// both stages as plan nodes. A query outside the fragment runs the
// reference whole, under kernel.
func TestCRPQStages(t *testing.T) {
	g := gen.Random(30, 120, []string{"a", "b"}, 5)
	e := New(g)
	req := Request{Query: "q(x, z) :- a(x, y), b(y, z)", Analyze: true}
	cold, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(cold.Spans), []string{"parse", "compile", "kernel", "enumerate"}; !slices.Equal(got, want) {
		t.Fatalf("cold spans %v, want %v", got, want)
	}
	hits := e.CacheStats().Hits
	warm, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(warm.Spans), []string{"kernel", "enumerate"}; !slices.Equal(got, want) {
		t.Fatalf("warm spans %v, want %v", got, want)
	}
	if got := e.CacheStats().Hits; got != hits+1 {
		t.Errorf("plan-cache hits %d -> %d, want one more", hits, got)
	}
	kernel, enumerate := warm.Spans[0], warm.Spans[1]
	if kernel.States != warm.StatesVisited || kernel.States == 0 || enumerate.States != 0 {
		t.Errorf("states: kernel %d enumerate %d, meter %d", kernel.States, enumerate.States, warm.StatesVisited)
	}
	if out := int64(len(warm.Rows.Rows)); enumerate.Rows != out || kernel.Rows != warm.RowsProduced-out || out == 0 {
		t.Errorf("rows: kernel %d enumerate %d, %d output rows of %d charged", kernel.Rows, enumerate.Rows, out, warm.RowsProduced)
	}
	var nodes []string
	for _, c := range warm.Analyze.Plan.Children {
		nodes = append(nodes, c.Name)
	}
	if !slices.Equal(nodes, []string{"kernel", "enumerate"}) {
		t.Errorf("analyze nodes %v, want kernel and enumerate", nodes)
	}

	e.SetGraph(g, 2)
	again, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(again.Spans, "compile") {
		t.Errorf("after SetGraph: spans %v, want a compile span", spanNames(again.Spans))
	}

	outside, err := e.QueryCtx(context.Background(), Request{Query: "q(x, z) :- shortest (a^z)+(x, y)"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(outside.Spans), []string{"parse", "compile", "kernel"}; !slices.Equal(got, want) {
		t.Errorf("reference-evaluated CRPQ spans %v, want %v", got, want)
	}
}

// slowSink is a BatchSink whose consumer is slow: every batch waits a
// fixed time and reports it.
type slowSink struct {
	byteSink
	wait time.Duration
}

func (s *slowSink) Batch(b RowBatch) (int, time.Duration, error) {
	n, _, err := s.byteSink.Batch(b)
	time.Sleep(s.wait)
	return n, s.wait, err
}

// TestStreamedPairsStages: delivery interleaved with the kernel stage is
// accounted to its own stages. Encoding is an accumulated "enumerate"
// span, what the sink waited on its consumer an accumulated "stream" span,
// the kernel span is recorded without either — so the three never sum
// past the wall clock — and none of it shows in the analyze tree, which is
// what the same query yields with no sink.
func TestStreamedPairsStages(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	req := Request{Query: "a*", Analyze: true}
	if _, err := e.QueryCtx(context.Background(), req); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	typed, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sink := &slowSink{wait: 2 * time.Millisecond}
	t0 := time.Now()
	resp, err := e.QueryStream(context.Background(), req, sink)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	var sum, stream time.Duration
	stages := map[string]bool{}
	for _, sp := range resp.Spans {
		sum += time.Duration(sp.DurNS)
		stages[sp.Name] = true
		switch sp.Name {
		case "kernel":
			if sp.Accumulated || sp.States == 0 {
				t.Errorf("kernel span %+v: want a real span with the meter deltas", sp)
			}
		case "enumerate", "stream":
			if !sp.Accumulated || sp.DurNS <= 0 {
				t.Errorf("%s span %+v: want an accumulated span with time in it", sp.Name, sp)
			}
			if sp.Name == "stream" {
				stream = time.Duration(sp.DurNS)
			}
		}
	}
	if !stages["kernel"] || !stages["enumerate"] || !stages["stream"] {
		t.Fatalf("spans %v: want kernel, enumerate and stream", spanNames(resp.Spans))
	}
	if stream < 4*time.Millisecond { // 64 sources: a batch of 8 and one of 56
		t.Errorf("stream stage %v, want the two batches' 2 ms waits", stream)
	}
	if sum > wall {
		t.Errorf("spans sum to %v, past the query's wall clock %v: %v", sum, wall, resp.Spans)
	}
	names := func(ap *AnnotatedPlan) (out []string) {
		for _, c := range ap.Plan.Children {
			out = append(out, c.Name)
		}
		return out
	}
	if got, want := names(resp.Analyze), names(typed.Analyze); !slices.Equal(got, want) {
		t.Errorf("analyze tree with a sink has stages %v, without %v", got, want)
	}
}

// TestShortestPathStages: an anchored ℓ-RPQ is compiled once per (revision,
// text) — expression, annotated automaton, product kernel — and in shortest
// mode evaluated in two stages. Cold it records parse → compile → kernel
// (the search from both ends: all the states that are not path building) →
// enumerate (the walk over the shortest-path DAG: the rows); warm, a
// plan-cache hit, only the last two; after SetGraph it compiles again. The
// plan attribute says where the two sides met, every state either stage
// charged the meter also reached the engine's counters, and the other modes
// still run whole under enumerate.
func TestShortestPathStages(t *testing.T) {
	g := gen.Grid(12, 12, "a")
	e := New(g)
	req := Request{Query: "a*", From: "g0_0", To: "g7_6", Mode: eval.Shortest, Limit: 5, Analyze: true}
	cold, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(cold.Spans), []string{"parse", "compile", "kernel", "enumerate"}; !slices.Equal(got, want) {
		t.Fatalf("cold spans %v, want %v", got, want)
	}
	hits, before := e.CacheStats().Hits, e.RuntimeStats()
	warm, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(warm.Spans), []string{"kernel", "enumerate"}; !slices.Equal(got, want) {
		t.Fatalf("warm spans %v, want %v", got, want)
	}
	if got := e.CacheStats().Hits; got != hits+1 {
		t.Errorf("plan-cache hits %d -> %d, want one more", hits, got)
	}
	if len(warm.Paths) != 5 || warm.Paths[0].Path.Len() != 13 {
		t.Fatalf("%d paths of length %d, want 5 of length 13", len(warm.Paths), warm.Paths[0].Path.Len())
	}
	kernel, enumerate := warm.Spans[0], warm.Spans[1]
	if kernel.States == 0 || enumerate.States == 0 || kernel.States+enumerate.States != warm.StatesVisited {
		t.Errorf("states: kernel %d + enumerate %d, meter %d", kernel.States, enumerate.States, warm.StatesVisited)
	}
	if kernel.Rows != 0 || enumerate.Rows != 5 || warm.RowsProduced != 5 {
		t.Errorf("rows: kernel %d enumerate %d, meter %d; want 0, 5, 5", kernel.Rows, enumerate.Rows, warm.RowsProduced)
	}
	after := e.RuntimeStats()
	if got := after.StatesExpanded - before.StatesExpanded; got != warm.StatesVisited {
		t.Errorf("counters saw %d states, the meter %d: a side of the search is not charged to both", got, warm.StatesVisited)
	}
	if after.EdgesScanned == before.EdgesScanned {
		t.Error("the search's edge scans did not reach the counters")
	}
	// 13 levels between them, and neither side did all of the work.
	var fwd, bwd int
	if n, _ := fmt.Sscanf(warm.Plan, "between fwd=%d bwd=%d", &fwd, &bwd); n != 2 || fwd+bwd != 13 || fwd == 0 || bwd == 0 {
		t.Errorf("plan attribute %q, want the two meeting depths, summing to 13", warm.Plan)
	}
	if warm.Analyze.Plan.Detail != warm.Plan || warm.Analyze.Sweep.Sweeps != 1 || warm.Analyze.Sweep.States != kernel.States {
		t.Errorf("analyze: detail %q, sweep %+v; want the plan line and one sweep of %d states", warm.Analyze.Plan.Detail, warm.Analyze.Sweep, kernel.States)
	}

	e.SetGraph(g, 2)
	again, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSpan(again.Spans, "compile") {
		t.Errorf("after SetGraph: spans %v, want a compile span", spanNames(again.Spans))
	}

	trail, err := e.QueryCtx(context.Background(), Request{Query: "a*", From: "g0_0", To: "g1_1", Mode: eval.Trail, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spanNames(trail.Spans), []string{"enumerate"}; !slices.Equal(got, want) || trail.Plan != "" {
		t.Errorf("trail mode on the cached plan: spans %v plan %q, want one enumerate span and no plan line", got, trail.Plan)
	}
}
