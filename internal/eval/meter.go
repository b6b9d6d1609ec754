package eval

import (
	"context"

	"graphquery/internal/pg"
)

// The cancellation/budget instrument lives in internal/pg — the unified
// product-graph runtime owns the budget-check loop for every evaluator.
// These aliases preserve eval's historical public API (and its error
// values), so serving layers and tests written against eval.Meter keep
// working unchanged.
type (
	// Meter is the live cancellation/budget instrument of one query; see
	// pg.Meter.
	Meter = pg.Meter
	// Budget caps the resources one query evaluation may consume; see
	// pg.Budget.
	Budget = pg.Budget
	// BudgetError reports which resource budget a query exhausted; see
	// pg.BudgetError.
	BudgetError = pg.BudgetError
	// SweepStats is the analyze-mode telemetry sink a meter can carry; see
	// pg.SweepStats.
	SweepStats = pg.SweepStats
	// SweepStatsSnapshot is the JSON rendering of a SweepStats sink; see
	// pg.SweepStatsSnapshot.
	SweepStatsSnapshot = pg.SweepStatsSnapshot
)

var (
	// ErrCanceled is returned when evaluation stops because its context was
	// canceled or its deadline expired.
	ErrCanceled = pg.ErrCanceled
	// ErrBudgetExceeded is returned when evaluation exceeds a resource
	// budget.
	ErrBudgetExceeded = pg.ErrBudgetExceeded
)

// MeterCheckInterval is how many product states an evaluator may expand
// between cooperative checks; see pg.CheckInterval.
const MeterCheckInterval = pg.CheckInterval

// NewMeter builds the meter for ctx and b with no progress or telemetry
// sink; see pg.NewMeter.
func NewMeter(ctx context.Context, b Budget) *Meter { return pg.NewMeter(ctx, b, nil, nil) }
