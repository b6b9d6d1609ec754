package twoway

import (
	"context"
	"errors"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/pg"
)

// TestPairsMeterRowsBudgetExact is the 2RPQ side of the emission-time
// rows-budget regression: the old code charged a whole sweep's batch after
// the fact, so the meter read the full per-source row count instead of
// stopping at MaxRows+1.
func TestPairsMeterRowsBudgetExact(t *testing.T) {
	e, err := Parse("a")
	if err != nil {
		t.Fatal(err)
	}
	const maxRows = 3
	// Clique(10): the first source sweep alone yields 9 rows.
	m := pg.NewMeter(context.Background(), pg.Budget{MaxRows: maxRows}, nil, nil)
	out, evalErr := PairsMeterOpt(gen.Clique(10, "a"), e, m, Options{Parallelism: 1})
	if !errors.Is(evalErr, pg.ErrBudgetExceeded) {
		t.Fatalf("got (%v, %v), want ErrBudgetExceeded", out, evalErr)
	}
	if out != nil {
		t.Errorf("partial result %v returned with error", out)
	}
	if got := m.Rows(); got != maxRows+1 {
		t.Errorf("meter rows = %d, want exactly MaxRows+1 = %d", got, maxRows+1)
	}
}
