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
	// cycle-2000 under a* a* a* takes ~1s sequential on a fast machine (one
	// node per level, so no sweep ever collapses bottom-up) — an order of
	// magnitude past the 50ms deadline, so this cannot finish before the
	// deadline fires.
	e := New(gen.Cycle(2000, "a"))
	e.Parallelism = 1
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryCtx(ctx, Request{Query: "a* a* a*"})
	elapsed := time.Since(start)
	if !errors.Is(err, eval.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not preserved: %v", err)
	}
	if elapsed > 2*50*time.Millisecond {
		t.Errorf("returned %v after the 50ms deadline; want within 2x", elapsed)
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

// TestCtxVariantsMatchClassic checks the ctx entry points return the same
// results as the seed's non-ctx methods.
func TestCtxVariantsMatchClassic(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	ctx := context.Background()

	want, err := e.Pairs("Transfer*")
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.PairsCtx(ctx, "Transfer*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("PairsCtx: %d pairs, Pairs: %d", len(got), len(want))
	}

	wr, err := e.Rows("q(x,y) :- Transfer(x,y), Transfer(y,x)")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := e.RowsCtx(ctx, "q(x,y) :- Transfer(x,y), Transfer(y,x)")
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Rows) != len(wr.Rows) {
		t.Fatalf("RowsCtx: %d rows, Rows: %d", len(gr.Rows), len(wr.Rows))
	}

	wp, err := e.Paths("Transfer+", "a3", "a1", eval.Shortest)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := e.PathsCtx(ctx, "Transfer+", "a3", "a1", eval.Shortest)
	if err != nil {
		t.Fatal(err)
	}
	if len(gp) != len(wp) {
		t.Fatalf("PathsCtx: %d paths, Paths: %d", len(gp), len(wp))
	}

	ww, err := e.TwoWayPairs("~Transfer Transfer")
	if err != nil {
		t.Fatal(err)
	}
	gw, err := e.TwoWayPairsCtx(ctx, "~Transfer Transfer")
	if err != nil {
		t.Fatal(err)
	}
	if len(gw) != len(ww) {
		t.Fatalf("TwoWayPairsCtx: %d pairs, TwoWayPairs: %d", len(gw), len(ww))
	}
}

// TestNonCtxFormsMatchCtxForms: every non-Ctx method is its Ctx form's body
// under a nil meter, so the two agree on results and on the error taxonomy
// — parse failures are ErrBadQuery and absent endpoints ErrUnknownNode on
// both.
func TestNonCtxFormsMatchCtxForms(t *testing.T) {
	e := New(gen.BankEdgeLabeled())
	ctx := context.Background()
	type form func(query string, src, dst graph.NodeID) (any, error)
	for _, tc := range []struct {
		name       string
		plain, ctx form
		query      string
		anchored   bool
	}{
		{"Pairs",
			func(q string, _, _ graph.NodeID) (any, error) { return e.Pairs(q) },
			func(q string, _, _ graph.NodeID) (any, error) { return e.PairsCtx(ctx, q) },
			"Transfer Transfer", false},
		{"Rows",
			func(q string, _, _ graph.NodeID) (any, error) { return e.Rows(q) },
			func(q string, _, _ graph.NodeID) (any, error) { return e.RowsCtx(ctx, q) },
			"q(x,y) :- Transfer(x, y)", false},
		{"TwoWayPairs",
			func(q string, _, _ graph.NodeID) (any, error) { return e.TwoWayPairs(q) },
			func(q string, _, _ graph.NodeID) (any, error) { return e.TwoWayPairsCtx(ctx, q) },
			"Transfer ~Transfer", false},
		{"Paths",
			func(q string, s, d graph.NodeID) (any, error) { return e.Paths(q, s, d, eval.Shortest) },
			func(q string, s, d graph.NodeID) (any, error) { return e.PathsCtx(ctx, q, s, d, eval.Shortest) },
			"Transfer+", true},
		{"Representation",
			func(q string, s, d graph.NodeID) (any, error) { return e.Representation(q, s, d, true) },
			func(q string, s, d graph.NodeID) (any, error) { return e.Representation(q, s, d, true) },
			"Transfer+", true},
	} {
		want, err := tc.ctx(tc.query, "a3", "a1")
		if err != nil {
			t.Fatalf("%s: Ctx form failed: %v", tc.name, err)
		}
		if got, err := tc.plain(tc.query, "a3", "a1"); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plain form (%v, %v) != Ctx form %v", tc.name, got, err, want)
		}
		for fname, f := range map[string]form{"plain": tc.plain, "ctx": tc.ctx} {
			if _, err := f("(((", "a3", "a1"); !errors.Is(err, ErrBadQuery) {
				t.Errorf("%s %s: parse failure is %v, want ErrBadQuery", tc.name, fname, err)
			}
			if !tc.anchored {
				continue
			}
			if _, err := f(tc.query, "a3", "nowhere"); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("%s %s: absent endpoint is %v, want ErrUnknownNode", tc.name, fname, err)
			}
		}
	}
}
