package main

import (
	"context"
	"strings"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/gen"
)

// TestTracePrintsOnErrorPath: -trace must print the plan and span timings
// even when the query fails — a canceled or timed-out query is exactly the
// one whose time breakdown the operator needs. Pre-fix, the trace printed
// only after a successful response.
func TestTracePrintsOnErrorPath(t *testing.T) {
	var buf strings.Builder
	traceQueries, traceOut = true, &buf
	defer func() { traceQueries = false }()

	eng := core.New(gen.Clique(64, "a"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // doomed before the kernel starts

	err := runOnce(ctx, eng, "a*", "", "", "all")
	if err == nil {
		t.Fatal("canceled query returned no error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want the interrupt message", err)
	}
	out := buf.String()
	if !strings.Contains(out, "plan:") || !strings.Contains(out, "dir=") {
		t.Errorf("-trace printed no plan line on the error path:\n%s", out)
	}
	if !strings.Contains(out, "spans:") || !strings.Contains(out, "kernel=") {
		t.Errorf("-trace printed no span timings on the error path:\n%s", out)
	}
}

// TestTracePrintsOnSuccessPath: the success path still traces, and the
// spans cover the full pipeline.
func TestTracePrintsOnSuccessPath(t *testing.T) {
	var buf strings.Builder
	traceQueries, traceOut = true, &buf
	defer func() { traceQueries = false }()

	eng := core.New(gen.BankEdgeLabeled())
	if err := runOnce(context.Background(), eng, "Transfer*", "", "", "all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "plan:") || !strings.Contains(out, "spans:") {
		t.Errorf("-trace printed nothing on success:\n%s", out)
	}
	if !strings.Contains(out, "parse=") || !strings.Contains(out, "kernel=") {
		t.Errorf("spans missing pipeline stages:\n%s", out)
	}
}
