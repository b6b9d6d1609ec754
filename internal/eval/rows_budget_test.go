package eval

import (
	"context"
	"errors"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/pg"
)

// TestRowsBudgetTripsAtEmission is the regression test for the amortized
// rows-budget bug: the old path swept a whole source first and charged
// AddRows(len(vs)) afterwards, so a query overshot MaxRows by up to a full
// sweep's batch. With emission-time charging the meter must stop at exactly
// MaxRows+1 — the row that trips the budget — on every plan shape.
func TestRowsBudgetTripsAtEmission(t *testing.T) {
	// Clique(10) under "a": the very first source sweep alone finds 9 rows,
	// so a MaxRows=3 budget must trip mid-sweep, not after it.
	const maxRows = 3
	for _, plan := range []pg.Plan{{}, {Shards: 2}, {Backward: true}} {
		p := mustProduct(t, gen.Clique(10, "a"), "a")
		m := NewMeter(context.Background(), Budget{MaxRows: maxRows})
		out, err := PairsProductCtx(context.Background(), p,
			Options{Parallelism: 1, Meter: m, Plan: plan})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("plan %+v: got (%v, %v), want ErrBudgetExceeded", plan, out, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Resource != "rows" || be.Limit != maxRows {
			t.Fatalf("plan %+v: got %v, want rows BudgetError with limit %d", plan, err, maxRows)
		}
		if out != nil {
			t.Errorf("plan %+v: partial result %v returned with error", plan, out)
		}
		if got := m.Rows(); got != maxRows+1 {
			t.Errorf("plan %+v: meter rows = %d, want exactly MaxRows+1 = %d", plan, got, maxRows+1)
		}
	}
}

// TestRowsBudgetExactBoundarySucceeds pins the other side of the boundary:
// a budget exactly equal to the result size must not trip.
func TestRowsBudgetExactBoundarySucceeds(t *testing.T) {
	g := gen.Clique(4, "a") // "a" yields 4·3 = 12 pairs
	p := mustProduct(t, g, "a")
	m := NewMeter(context.Background(), Budget{MaxRows: 12})
	out, err := PairsProductCtx(context.Background(), p, Options{Parallelism: 1, Meter: m})
	if err != nil {
		t.Fatalf("budget == result size errored: %v", err)
	}
	if len(out) != 12 {
		t.Fatalf("pairs = %d, want 12", len(out))
	}
	if got := m.Rows(); got != 12 {
		t.Fatalf("meter rows = %d, want 12", got)
	}
}
