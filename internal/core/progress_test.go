package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/obs"
)

// TestQueryCtxThreadsProgress: a Request.Progress reaches the kernel through
// the meter — after the query, the live counters agree with the response's
// own accounting and the stage advanced through the evaluation pipeline.
func TestQueryCtxThreadsProgress(t *testing.T) {
	eng := New(gen.Clique(16, "a"))
	p := &obs.Progress{}
	resp, err := eng.QueryCtx(context.Background(), Request{
		Query:    "a*",
		Progress: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if snap.States == 0 {
		t.Fatal("Progress recorded zero states for a clique sweep")
	}
	if snap.States != resp.StatesVisited {
		t.Fatalf("Progress states = %d, response StatesVisited = %d; they share one meter and must agree",
			snap.States, resp.StatesVisited)
	}
	if snap.Edges == 0 {
		t.Fatal("Progress recorded zero edges; kernel sweep must report edge scans")
	}
	// The last span QueryCtx opens for an RPQ is "kernel" (pairs are
	// rendered inside it, as they leave the fan-out), and the stage tracks
	// span starts.
	if snap.Stage != "kernel" {
		t.Fatalf("final stage = %q, want kernel", snap.Stage)
	}
}

// TestQueryCtxProgressRows: row budgets and row progress flow through the
// same meter on the CRPQ path.
func TestQueryCtxProgressRows(t *testing.T) {
	eng := New(gen.BankEdgeLabeled())
	p := &obs.Progress{}
	resp, err := eng.QueryCtx(context.Background(), Request{
		Query:    "q(x,y) :- Transfer(x,y)",
		Progress: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "rows" || resp.Rows == nil || len(resp.Rows.Rows) == 0 {
		t.Fatalf("expected rows, got %+v", resp)
	}
	if got := p.Snapshot().Rows; got != resp.RowsProduced {
		t.Fatalf("Progress rows = %d, response RowsProduced = %d", got, resp.RowsProduced)
	}
}

// TestConcurrentQueriesIndependentProgress is the introspection regression
// test: two queries running concurrently on the SAME engine must have fully
// independent progress and cancellation. Canceling one query's context
// kills only that query; the survivor completes and its Progress reflects
// only its own work.
func TestConcurrentQueriesIndependentProgress(t *testing.T) {
	eng := New(gen.Clique(24, "a"))

	ctx1, cancel1 := context.WithCancel(context.Background())
	cancel1() // query 1 is doomed before it starts
	ctx2 := context.Background()

	p1, p2 := &obs.Progress{}, &obs.Progress{}
	var (
		wg         sync.WaitGroup
		err1, err2 error
		resp2      *Response
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err1 = eng.QueryCtx(ctx1, Request{Query: "a*", Progress: p1})
	}()
	go func() {
		defer wg.Done()
		resp2, err2 = eng.QueryCtx(ctx2, Request{Query: "a*", Progress: p2})
	}()
	wg.Wait()

	if !errors.Is(err1, eval.ErrCanceled) {
		t.Fatalf("query 1 (canceled ctx) err = %v, want ErrCanceled", err1)
	}
	if err2 != nil {
		t.Fatalf("query 2 (live ctx) failed: %v — cancellation leaked across queries", err2)
	}
	s1, s2 := p1.Snapshot(), p2.Snapshot()
	if s2.States != resp2.StatesVisited {
		t.Fatalf("survivor progress states = %d, want %d", s2.States, resp2.StatesVisited)
	}
	// The canceled query stops at the first amortized tick, so it observes
	// at most one tick interval of states — far less than the survivor's
	// full sweep over a 24-clique product.
	if s1.States >= s2.States {
		t.Fatalf("canceled query swept %d states, survivor %d; cancellation did not stop it",
			s1.States, s2.States)
	}
}
