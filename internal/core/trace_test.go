package core

import (
	"context"
	"errors"
	"strings"
	"testing"

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
// parse → compile → plan → kernel (pairs are rendered inside the kernel
// span, as they leave the fan-out — there is no enumerate stage), a warm
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
