package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

// TestQueryCtxRowBudget is the §6.3 acceptance check: Figure 5's graph has
// 2^n distinct s→t paths, so an unbudgeted mode-all enumeration is
// exponential in the output — and a rows budget must stop it with
// ErrBudgetExceeded instead of materializing it.
func TestQueryCtxRowBudget(t *testing.T) {
	e := New(gen.Figure5(20))
	e.MaxLen = 20
	_, err := e.QueryCtx(context.Background(), Request{
		Query:  "a*",
		From:   "s",
		To:     "t",
		Budget: eval.Budget{MaxRows: 100},
	})
	if !errors.Is(err, eval.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	var be *eval.BudgetError
	if !errors.As(err, &be) || be.Resource != "rows" || be.Limit != 100 {
		t.Fatalf("got %v, want *BudgetError{rows, 100}", err)
	}
}

// TestQueryCtxDeadline runs an expensive query under a 50ms deadline
// and requires a prompt ErrCanceled that still unwraps to
// context.DeadlineExceeded.
func TestQueryCtxDeadline(t *testing.T) {
	// clique-400 under a{200} takes ~0.6s sequential — an order of magnitude
	// past the 50ms deadline — and all of it in the kernel's level loop: the
	// automaton is a chain, so the call does not condense, and each batch
	// re-scans all 160 000 edges at every one of its 200 levels. The product
	// is small (80 400 states, 1.3 MB of batch slabs), and that is the point:
	// a batch that moves onto its flat slabs allocates them, 16 bytes per
	// product state, between two polls, and that allocation cannot poll. On
	// cycle-20000 under a{500} (10 M states) a slab allocation spent 73–99 ms
	// when the heap's pages had gone back to the OS, so a deadline test there
	// measured the page allocator. (A
	// starred query is no good either: it condenses, and what time it takes
	// goes to buffering millions of rows, where no poll can land inside one
	// growing append.)
	e := New(gen.Clique(400, "a"))
	e.Parallelism = 1
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	tr := obs.NewTrace()
	start := time.Now()
	_, err := e.QueryCtx(ctx, Request{Query: "a{200}", Trace: tr})
	elapsed := time.Since(start)
	if !errors.Is(err, eval.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not preserved: %v", err)
	}
	if elapsed > 2*50*time.Millisecond {
		t.Errorf("returned %v after the 50ms deadline; want within 2x (spans %s)", elapsed, obs.SpansString(tr.Spans()))
	}
}

// TestQueryCtxDispatch checks the unified entry point routes every language
// to the right result kind.
func TestQueryCtxDispatch(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	ctx := context.Background()

	resp, err := e.QueryCtx(ctx, Request{Query: "Transfer*", Budget: eval.Budget{MaxStates: 1 << 30}})
	if err != nil || resp.Kind != "pairs" || len(resp.Pairs) == 0 {
		t.Fatalf("RPQ: resp=%+v err=%v, want pairs", resp, err)
	}
	// A budgeted request carries a live meter, so the work is accounted.
	if resp.StatesVisited == 0 {
		t.Errorf("RPQ: StatesVisited not accounted")
	}

	resp, err = e.QueryCtx(ctx, Request{Query: "Transfer+", From: "a3", To: "a1", Mode: eval.Shortest})
	if err != nil || resp.Kind != "paths" {
		t.Fatalf("anchored RPQ: resp=%+v err=%v, want paths", resp, err)
	}

	resp, err = e.QueryCtx(ctx, Request{Query: "q(x,y) :- Transfer(x,y), Transfer(y,x)"})
	if err != nil || resp.Kind != "rows" || resp.Rows == nil {
		t.Fatalf("CRPQ: resp=%+v err=%v, want rows", resp, err)
	}

	resp, err = e.QueryCtx(ctx, Request{Query: "~Transfer Transfer", Lang: "2rpq"})
	if err != nil || resp.Kind != "pairs" {
		t.Fatalf("2RPQ: resp=%+v err=%v, want pairs", resp, err)
	}
}

func TestQueryCtxErrorTaxonomy(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	ctx := context.Background()

	if _, err := e.QueryCtx(ctx, Request{Query: "((("}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("parse error: got %v, want ErrBadQuery", err)
	}
	if _, err := e.QueryCtx(ctx, Request{Query: "Transfer", From: "nope", To: "a1"}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown node: got %v, want ErrUnknownNode", err)
	}
	if _, err := e.QueryCtx(ctx, Request{Query: "() [Transfer] ()"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("unanchored dl-RPQ: got %v, want ErrBadQuery", err)
	}
	if _, err := e.QueryCtx(ctx, Request{Query: "Transfer", From: "a1"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("half-anchored: got %v, want ErrBadQuery", err)
	}
}

// TestQueryCtxOverridesDoNotMutateEngine checks per-request bounds are
// computed locally: concurrent requests must not observe each other's
// overrides.
func TestQueryCtxOverridesDoNotMutateEngine(t *testing.T) {
	e := New(gen.Figure5(4))
	e.MaxLen = 7
	e.Limit = 3
	if _, err := e.QueryCtx(context.Background(), Request{
		Query: "a*", From: "s", To: "t", MaxLen: 4, Limit: 1,
		Budget: eval.Budget{MaxStates: 1 << 30},
	}); err != nil {
		t.Fatal(err)
	}
	if e.MaxLen != 7 || e.Limit != 3 || e.Budget != (eval.Budget{}) {
		t.Fatalf("engine mutated by request overrides: MaxLen=%d Limit=%d Budget=%+v", e.MaxLen, e.Limit, e.Budget)
	}
}

// TestQueryCtxMatchesTypedForms: every typed convenience is QueryCtx's
// evaluator under a nil meter, so the two agree on results — and QueryCtx,
// the ctx surface, stops each kind on a dead context, an expired deadline
// and an exhausted budget.
func TestQueryCtxMatchesTypedForms(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		name  string
		typed func() (any, error) // the typed convenience
		req   Request             // the QueryCtx request reaching the same evaluator
		field func(*Response) any // the Response field it fills
	}{
		{"Pairs",
			func() (any, error) { return e.Pairs("Transfer*") },
			Request{Query: "Transfer*"},
			func(r *Response) any { return r.Pairs }},
		{"Rows",
			func() (any, error) { return e.Rows("q(x,y) :- Transfer(x,y)") },
			Request{Query: "q(x,y) :- Transfer(x,y)"},
			func(r *Response) any { return r.Rows }},
		{"Paths",
			func() (any, error) { return e.Paths("Transfer+", "a3", "a1", eval.Trail) },
			Request{Query: "Transfer+", From: "a3", To: "a1", Mode: eval.Trail},
			func(r *Response) any { return r.Paths }},
		{"TwoWayPairs",
			func() (any, error) { return e.TwoWayPairs("~Transfer Transfer") },
			Request{Query: "~Transfer Transfer", Lang: "2rpq"},
			func(r *Response) any { return r.Pairs }},
		{"GQLMatch",
			func() (any, error) { return e.GQLMatch("(x) -[:Transfer]-> (y)") },
			Request{Query: "(x) -[:Transfer]-> (y)", Lang: "gql"},
			func(r *Response) any { return r.Matches }},
	} {
		want, err := tc.typed()
		if err != nil {
			t.Fatalf("%s: typed form failed: %v", tc.name, err)
		}
		resp, err := e.QueryCtx(context.Background(), tc.req)
		if err != nil {
			t.Fatalf("%s: QueryCtx failed: %v", tc.name, err)
		}
		if got := tc.field(resp); !reflect.DeepEqual(got, want) || resp.Count() == 0 {
			t.Errorf("%s: QueryCtx %v != typed form %v", tc.name, got, want)
		}
		if _, err := e.QueryCtx(canceled, tc.req); !errors.Is(err, eval.ErrCanceled) {
			t.Errorf("%s: pre-canceled context: got %v, want ErrCanceled", tc.name, err)
		}
		if _, err := e.QueryCtx(expired, tc.req); !errors.Is(err, eval.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: expired deadline: got %v, want ErrCanceled wrapping DeadlineExceeded", tc.name, err)
		}
		req := tc.req
		req.Budget = eval.Budget{MaxRows: 1}
		if _, err := e.QueryCtx(context.Background(), req); !errors.Is(err, eval.ErrBudgetExceeded) {
			t.Errorf("%s: MaxRows=1: got %v, want ErrBudgetExceeded", tc.name, err)
		}
	}
}

// TestEntryPointErrorTaxonomy: every exported Engine entry point that takes
// query text wraps a malformed query in ErrBadQuery, and every one that
// takes endpoints wraps an absent one in ErrUnknownNode — the facade agrees
// with the HTTP surface.
func TestEntryPointErrorTaxonomy(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	ctx := context.Background()
	sink := &countingSink{}
	for _, tc := range []struct {
		name string
		good string
		// call evaluates query, anchored entry points between a3 and dst.
		call     func(query string, dst graph.NodeID) error
		anchored bool
	}{
		{"Pairs", "Transfer+", func(q string, _ graph.NodeID) error { _, err := e.Pairs(q); return err }, false},
		{"Rows", "q(x,y) :- Transfer(x,y)", func(q string, _ graph.NodeID) error { _, err := e.Rows(q); return err }, false},
		{"TwoWayPairs", "~Transfer", func(q string, _ graph.NodeID) error { _, err := e.TwoWayPairs(q); return err }, false},
		{"Explain", "Transfer+", func(q string, _ graph.NodeID) error { _, err := e.Explain(q); return err }, false},
		{"Estimate", "Transfer+", func(q string, _ graph.NodeID) error { _, _, err := e.Estimate(q); return err }, false},
		{"ProgramRows", "q(x,y) :- Transfer(x,y)", func(q string, _ graph.NodeID) error { _, err := e.ProgramRows(q); return err }, false},
		{"GQLMatch", "(x) -[:Transfer]-> (y)", func(q string, _ graph.NodeID) error { _, err := e.GQLMatch(q); return err }, false},
		{"Paths", "Transfer+", func(q string, d graph.NodeID) error { _, err := e.Paths(q, "a3", d, eval.Shortest); return err }, true},
		{"Representation", "Transfer+", func(q string, d graph.NodeID) error { _, err := e.Representation(q, "a3", d, true); return err }, true},
		{"Query", "Transfer+", func(q string, d graph.NodeID) error {
			_, err := e.Query(Request{Query: q, From: "a3", To: d})
			return err
		}, true},
		{"QueryCtx", "Transfer+", func(q string, d graph.NodeID) error {
			_, err := e.QueryCtx(ctx, Request{Query: q, From: "a3", To: d})
			return err
		}, true},
		{"QueryStream", "Transfer+", func(q string, d graph.NodeID) error {
			_, err := e.QueryStream(ctx, Request{Query: q, From: "a3", To: d}, sink)
			return err
		}, true},
		{"QueryCtx pmr", "Transfer+", func(q string, d graph.NodeID) error {
			_, err := e.QueryCtx(ctx, Request{Query: q, Lang: "pmr", From: "a3", To: d, Limit: 1})
			return err
		}, true},
	} {
		if err := tc.call(tc.good, "a1"); err != nil {
			t.Errorf("%s: well-formed query failed: %v", tc.name, err)
		}
		if err := tc.call("(((", "a1"); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: malformed query is %v, want ErrBadQuery", tc.name, err)
		}
		if !tc.anchored {
			continue
		}
		if err := tc.call(tc.good, "nowhere"); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("%s: absent endpoint is %v, want ErrUnknownNode", tc.name, err)
		}
	}
}

// panicSink panics on its third row: a bug in the consumer.
type panicSink struct{ rows int }

func (s *panicSink) Begin(string, []string) error { return nil }
func (s *panicSink) Row(any) error {
	if s.rows++; s.rows == 3 {
		panic("sink bug")
	}
	return nil
}

// TestQueryStreamContainsPanic: a panic under the fan-out — on a worker
// goroutine at Parallelism 4, on the caller's at 1 — becomes the query's
// error, outside the client-fault taxonomy, and healthy queries running
// beside it on the same engine complete.
func TestQueryStreamContainsPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New(gen.BankEdgeLabeled())
		e.Parallelism = par
		want, err := e.Pairs("Transfer*")
		if err != nil {
			t.Fatal(err)
		}
		healthy := make(chan error, 1)
		go func() {
			for i := 0; i < 20; i++ {
				resp, err := e.QueryCtx(context.Background(), Request{Query: "Transfer*"})
				if err == nil && !reflect.DeepEqual(resp.Pairs, want) {
					err = errors.New("healthy query returned a different result")
				}
				if err != nil {
					healthy <- err
					return
				}
			}
			healthy <- nil
		}()
		for i := 0; i < 20; i++ {
			_, err := e.QueryStream(context.Background(), Request{Query: "Transfer*"}, &panicSink{})
			var panicked *pg.PanicError
			if !errors.As(err, &panicked) || panicked.Value != "sink bug" || len(panicked.Stack) == 0 {
				t.Fatalf("parallelism %d: got %v, want the recovered panic", par, err)
			}
			if errors.Is(err, ErrBadQuery) {
				t.Fatalf("parallelism %d: a panic was blamed on the query: %v", par, err)
			}
		}
		if err := <-healthy; err != nil {
			t.Fatalf("parallelism %d: healthy query beside the panics: %v", par, err)
		}
	}
}
