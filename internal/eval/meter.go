package eval

import (
	"context"

	"graphquery/internal/pg"
)

// Budget caps the resources one query evaluation may consume; see
// pg.Budget. It and NewMeter are the benchmark harness's names for the
// meter: every other caller names pg directly.
type Budget = pg.Budget

// NewMeter builds the meter for ctx and b with no progress or telemetry
// sink; see pg.NewMeter.
func NewMeter(ctx context.Context, b Budget) *pg.Meter { return pg.NewMeter(ctx, b, nil, nil) }
