// Budget and cancellation conformance across the independent evaluators —
// the original five plus every tier unified onto the product-graph kernel
// (gql, coregql, cypher, pmr, spanner, relalg, bag). The serving layer
// promises one error taxonomy (Section 6.1/6.3: evaluation cost can blow
// up combinatorially, so a service must stop a run and say precisely why)
// — these tests pin the contract every evaluator must honor: an exhausted
// budget or a canceled context yields the taxonomy error and NO partial
// result slice, under sequential and parallel plans alike.
package crossval_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphquery/internal/bag"
	"graphquery/internal/coregql"
	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/gql"
	"graphquery/internal/lrpq"
	"graphquery/internal/pmr"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/spanner"
	"graphquery/internal/twoway"
)

// evaluatorRun is one evaluator under one fixed workload, reporting how
// many results it produced alongside the error. The workloads are sized so
// every evaluator expands well over one meter check interval of states and
// produces at least two results — tight budgets therefore always trip
// mid-evaluation, never before or after it.
type evaluatorRun struct {
	name        string
	parallelism []int // worker degrees to exercise; 1 is the sequential plan
	run         func(ctx context.Context, b eval.Budget, par int) (int, error)
}

func evaluators() []evaluatorRun {
	gBig := gen.Clique(60, "a")   // pairs evaluators: 60·nq product states per source
	gSmall := gen.Clique(10, "a") // path enumerators: ~800 configurations anchored
	// Shortest paths corner to corner: the search from both ends expands
	// ~900 product states before it meets, and there are C(58, 29) answers.
	gGrid := gen.Grid(30, 30, "a")
	rq := rpq.MustParse("a* a*")
	tw := twoway.MustParse("a* a*")
	lq := lrpq.MustParse("a*")
	dq := dlrpq.MustParse("() {[a]()}+")
	cq := crpq.MustParse("q(x, y) :- a* a*(x, y)")
	gBag := gen.Clique(6, "a") // bag counting: ~2k recursion steps per pair

	// The unified upper tiers, each through its ctx-aware kernel entry
	// point. Workloads follow the same sizing rule as above.
	gqlPat := gql.Concat(gql.Node("x"), gql.AnonEdgeL("a"), gql.Node("y"))
	corePat := coregql.Concat(coregql.Node("x"), coregql.AnonEdge(), coregql.Node("y"))
	cyPat := cypherfrag.Concat(cypherfrag.StarOf("a"), cypherfrag.StarOf("a"))
	pmrRep := pmr.FromProduct(gSmall, rpq.MustParse("a*"), 0, 1)
	doc := strings.Repeat("a", 60)
	spanExpr := spanner.Seq(
		spanner.Cap("x", spanner.Star(spanner.Lit("a"))),
		spanner.Cap("y", spanner.Star(spanner.Lit("a"))))
	raQuery := relalg.MustParseQuery("REACH(a* a*) AS (x, y)")
	return []evaluatorRun{
		{"eval", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := eval.PairsCtx(ctx, gBig, rq, eval.Options{Parallelism: par, Budget: b})
			return len(out), err
		}},
		{"twoway", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := twoway.PairsMeterOpt(gBig, tw, eval.NewMeter(ctx, b), twoway.Options{Parallelism: par})
			return len(out), err
		}},
		{"lrpq", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := lrpq.EvalBetweenCtx(ctx, gSmall, lq, 0, 1, eval.All,
				lrpq.Options{MaxLen: 4, Meter: eval.NewMeter(ctx, b)})
			return len(out), err
		}},
		{"lrpq-shortest", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := lrpq.EvalBetweenCtx(ctx, gGrid, lq, gGrid.MustNode("g0_0"), gGrid.MustNode("g29_29"), eval.Shortest,
				lrpq.Options{Limit: 3, Meter: eval.NewMeter(ctx, b)})
			return len(out), err
		}},
		{"dlrpq", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := dlrpq.EvalBetweenCtx(ctx, gSmall, dq, 0, 1, eval.All,
				dlrpq.Options{MaxLen: 4, Meter: eval.NewMeter(ctx, b)})
			return len(out), err
		}},
		{"crpq", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			res, err := crpq.EvalCtx(ctx, gBig, cq, crpq.Options{Parallelism: par, Budget: b})
			if res == nil {
				return 0, err
			}
			return len(res.Rows), err
		}},
		{"crpq-served", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			plan, err := crpq.Compile(gBig, cq, nil)
			if err != nil {
				return 0, err
			}
			res, err := plan.Eval(ctx, crpq.Options{Parallelism: par, Budget: b})
			if res == nil {
				return 0, err
			}
			return len(res.Rows), err
		}},
		{"gql", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := gql.EvalPatternCtx(ctx, gBig, gqlPat, gql.Options{}, b)
			return len(out), err
		}},
		{"coregql", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := coregql.EvalPatternCtx(ctx, gBig, corePat, coregql.Options{}, b)
			return len(out), err
		}},
		{"cypher", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := cypherfrag.PairsCtx(ctx, gBig, cyPat, eval.Options{Parallelism: par, Budget: b})
			return len(out), err
		}},
		{"pmr", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := pmrRep.EnumerateCtx(ctx, 200, b)
			return len(out), err
		}},
		{"spanner", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			out, err := spanner.EvaluateCtx(ctx, doc, spanExpr, b)
			return len(out), err
		}},
		{"relalg", []int{1, 4}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			rel, err := relalg.EvalQueryCtx(ctx, gBig, raQuery, eval.Options{Parallelism: par, Budget: b})
			if rel == nil {
				return 0, err
			}
			return rel.Len(), err
		}},
		{"bag", []int{1}, func(ctx context.Context, b eval.Budget, par int) (int, error) {
			total, err := bag.TotalCountCtx(ctx, gBag, rpq.MustParse("a*"), b)
			if total == nil {
				return 0, err
			}
			return 1, err
		}},
	}
}

// TestEvaluatorsBudgetNoPartialResults: a tight states or rows budget makes
// every evaluator return ErrBudgetExceeded naming the exhausted resource,
// with an empty result — never a truncated slice the caller could mistake
// for a complete answer.
func TestEvaluatorsBudgetNoPartialResults(t *testing.T) {
	budgets := []struct {
		resource string
		budget   eval.Budget
	}{
		{"states", eval.Budget{MaxStates: 8}},
		{"rows", eval.Budget{MaxRows: 1}},
	}
	for _, ev := range evaluators() {
		for _, par := range ev.parallelism {
			for _, bc := range budgets {
				n, err := ev.run(context.Background(), bc.budget, par)
				if !errors.Is(err, eval.ErrBudgetExceeded) {
					t.Errorf("%s/par=%d/%s: got %v, want ErrBudgetExceeded", ev.name, par, bc.resource, err)
					continue
				}
				var be *eval.BudgetError
				if !errors.As(err, &be) || be.Resource != bc.resource {
					t.Errorf("%s/par=%d/%s: got %v, want *BudgetError{%s}", ev.name, par, bc.resource, err, bc.resource)
				}
				if n != 0 {
					t.Errorf("%s/par=%d/%s: %d partial results alongside the error", ev.name, par, bc.resource, n)
				}
			}
		}
	}
}

// TestEvaluatorsPreCanceledContext: a context canceled before evaluation
// starts stops every evaluator with ErrCanceled (cause preserved) and no
// results.
func TestEvaluatorsPreCanceledContext(t *testing.T) {
	for _, ev := range evaluators() {
		for _, par := range ev.parallelism {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			n, err := ev.run(ctx, eval.Budget{}, par)
			if !errors.Is(err, eval.ErrCanceled) {
				t.Errorf("%s/par=%d: got %v, want ErrCanceled", ev.name, par, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s/par=%d: cause context.Canceled not preserved: %v", ev.name, par, err)
			}
			if n != 0 {
				t.Errorf("%s/par=%d: %d partial results alongside the error", ev.name, par, n)
			}
		}
	}
}

// tripwire is a context whose Err reports cancellation only from its
// second poll on — a deterministic stand-in for a client disconnecting
// mid-evaluation. The meter polls Err once per CheckInterval expanded
// states, so by the time the tripwire fires the evaluator has provably
// done real work; a sleep-then-cancel test would either race a fast query
// or stall the suite. Done returns a non-nil channel so pg.NewMeter treats
// the context as cancelable.
type tripwire struct {
	polls atomic.Int64
	done  chan struct{}
}

func newTripwire() *tripwire { return &tripwire{done: make(chan struct{})} }

func (t *tripwire) Deadline() (time.Time, bool) { return time.Time{}, false }
func (t *tripwire) Done() <-chan struct{}       { return t.done }
func (t *tripwire) Value(any) any               { return nil }
func (t *tripwire) Err() error {
	if t.polls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestEvaluatorsMidFlightCancel: cancellation observed after evaluation is
// underway (the first budget check has already passed) still yields
// ErrCanceled and an empty result — no evaluator commits to partial output
// once its search loops have started.
func TestEvaluatorsMidFlightCancel(t *testing.T) {
	for _, ev := range evaluators() {
		for _, par := range ev.parallelism {
			tw := newTripwire()
			n, err := ev.run(tw, eval.Budget{}, par)
			if !errors.Is(err, eval.ErrCanceled) {
				t.Errorf("%s/par=%d: got %v, want ErrCanceled", ev.name, par, err)
			}
			if n != 0 {
				t.Errorf("%s/par=%d: %d partial results alongside the error", ev.name, par, n)
			}
			if tw.polls.Load() < 2 {
				t.Errorf("%s/par=%d: meter polled the context %d time(s); cancellation never observed mid-flight",
					ev.name, par, tw.polls.Load())
			}
		}
	}
}

// switchCtx is a context that reports nothing until trip hands it an error
// to report — a cancellation or an expired deadline placed exactly between
// two stages of an evaluation.
type switchCtx struct {
	err  atomic.Pointer[error]
	done chan struct{}
}

func (c *switchCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *switchCtx) Done() <-chan struct{}       { return c.done }
func (c *switchCtx) Value(any) any               { return nil }
func (c *switchCtx) trip(err error)              { c.err.Store(&err) }
func (c *switchCtx) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// TestCRPQJoinCancel: the served CRPQ's join polls its meter, so a kill or
// a deadline that lands once the atoms are swept — the four-cycle over a
// 30-clique has 570 000 rows to enumerate — ends the query within one check
// interval of candidate bindings, each of which is at most one output row.
// (The reference's join is one uninterruptible call: it sees a cancellation
// only after materializing every intermediate tuple.)
func TestCRPQJoinCancel(t *testing.T) {
	plan, err := crpq.Compile(gen.Clique(30, "a"),
		crpq.MustParse("q(x, y, z, w) :- a(x, y), a(y, z), a(z, w), a(w, x)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		ctx := &switchCtx{done: make(chan struct{})}
		m := eval.NewMeter(ctx, eval.Budget{})
		swept, err := plan.Sweep(crpq.Options{Parallelism: 1, Meter: m})
		if err != nil {
			t.Fatal(err)
		}
		sweptRows := m.Rows()
		ctx.trip(cause)
		res, err := swept.Join()
		if res != nil || !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, cause) {
			t.Errorf("%v mid-join: result %v, err %v; want no result and ErrCanceled wrapping the cause", cause, res != nil, err)
		}
		if joined := m.Rows() - sweptRows; joined > eval.MeterCheckInterval {
			t.Errorf("%v mid-join: the join produced %d more rows; the check interval is %d", cause, joined, eval.MeterCheckInterval)
		}
	}
}
