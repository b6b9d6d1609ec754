package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

func mustProduct(t *testing.T, g *graph.Graph, query string) *Product {
	t.Helper()
	e, err := rpq.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return NewProduct(g, rpq.Compile(e))
}

// ctxCases is the shared table: every graph × query here is exercised
// under sequential and parallel evaluation.
var ctxCases = []struct {
	name  string
	build func() *graph.Graph
	query string
}{
	{"clique", func() *graph.Graph { return gen.Clique(60, "a") }, "a* a*"},
	{"figure5", func() *graph.Graph { return gen.Figure5(12) }, "a* a*"},
}

func TestPairsCtxPreCanceled(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, tc := range ctxCases {
			p := mustProduct(t, tc.build(), tc.query)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := PairsProductCtx(ctx, p, Options{Parallelism: par})
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("%s/par=%d: pre-canceled ctx: got %v, want ErrCanceled", tc.name, par, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s/par=%d: cause context.Canceled not preserved: %v", tc.name, par, err)
			}
		}
	}
}

// TestPairsCtxPromptCancel cancels mid-BFS and requires the evaluator to
// return ErrCanceled well before it could have finished the query. The
// 5-second watchdog guards against a cancellation path that never fires.
func TestPairsCtxPromptCancel(t *testing.T) {
	// Big enough that a{500} cannot finish in the cancel delay even ÷4
	// workers (~0.5s sequential). A long cycle under a chain automaton:
	// sources share nothing and nothing condenses, so the product is walked
	// one (source, state) discovery at a time. Cancellation checks run every
	// MeterCheckInterval states, so the return should be near-immediate
	// once ctx fires.
	p := mustProduct(t, gen.Cycle(20000, "a"), "a{500}")
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := PairsProductCtx(ctx, p, Options{Parallelism: par})
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("par=%d: got %v, want ErrCanceled", par, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("par=%d: evaluator ignored cancellation for 5s", par)
		}
	}
}

func TestPairsCtxDeadline(t *testing.T) {
	p := mustProduct(t, gen.Cycle(20000, "a"), "a{500}")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := PairsProductCtx(ctx, p, Options{Parallelism: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("got %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("deadline cause not preserved: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluator ignored the deadline for 5s")
	}
}

func TestPairsCtxBudgets(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, tc := range ctxCases {
			p := mustProduct(t, tc.build(), tc.query)

			_, err := PairsProductCtx(context.Background(), p,
				Options{Parallelism: par, Budget: Budget{MaxStates: 50}})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s/par=%d: MaxStates: got %v, want ErrBudgetExceeded", tc.name, par, err)
			}
			var be *BudgetError
			if !errors.As(err, &be) || be.Resource != "states" {
				t.Errorf("%s/par=%d: MaxStates: got %v, want *BudgetError{states}", tc.name, par, err)
			}

			_, err = PairsProductCtx(context.Background(), p,
				Options{Parallelism: par, Budget: Budget{MaxRows: 3}})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s/par=%d: MaxRows: got %v, want ErrBudgetExceeded", tc.name, par, err)
			}
			if !errors.As(err, &be) || be.Resource != "rows" {
				t.Errorf("%s/par=%d: MaxRows: got %v, want *BudgetError{rows}", tc.name, par, err)
			}
		}
	}
}

// TestPairsCtxMatchesPairs checks the metered path returns exactly what the
// unmetered one does when nothing constrains it.
func TestPairsCtxMatchesPairs(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, tc := range ctxCases {
			p := mustProduct(t, tc.build(), tc.query)
			want := PairsProduct(p, Options{Parallelism: par})
			got, err := PairsProductCtx(context.Background(), p,
				Options{Parallelism: par, Budget: Budget{MaxStates: 1 << 40, MaxRows: 1 << 40}})
			if err != nil {
				t.Fatalf("%s/par=%d: %v", tc.name, par, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/par=%d: got %d pairs, want %d", tc.name, par, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/par=%d: pair %d: got %v, want %v", tc.name, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPairsCtxNoGoroutineLeak cancels parallel evaluations repeatedly and
// checks the worker pools are joined: the goroutine count returns to (near)
// its baseline.
func TestPairsCtxNoGoroutineLeak(t *testing.T) {
	p := mustProduct(t, gen.Clique(80, "a"), "a* a*")
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := PairsProductCtx(ctx, p, Options{Parallelism: 4}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: got %v, want ErrCanceled", i, err)
		}
	}
	// Workers are joined before PairsProductCtx returns, so only unrelated
	// runtime goroutines should move the count; allow slack and retry
	// briefly for scheduler noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
