package eval

import (
	"context"

	"graphquery/internal/pg"
)

// emitBatchRows bounds the pair batches the degraded (materialize-first)
// streaming paths hand to emit, so a consumer sized for incremental batches
// never receives one giant slice even when the evaluation itself could not
// stream.
const emitBatchRows = 1024

// PairsProductEmit is PairsProductCtx with streaming delivery: instead of
// returning the materialized pair list, batches of pairs are handed to emit
// in exactly the order PairsProductCtx would return them, while evaluation
// is still running. Memory is bounded by the fan-out's in-flight window
// (pg.ForEachEmit) — O(window × per-source result) — not by the total
// result, and a blocked emit throttles the worker pool (backpressure).
//
// Rows are charged on the meter at emission time inside each sweep, exactly
// as in the materializing path, so a MaxRows budget still trips on row
// MaxRows+1. emit is never called concurrently with itself; its error stops
// evaluation and is returned verbatim (serving layers use a sentinel to
// stop early, e.g. when a cursor page is full). A batch is only valid for
// the duration of the emit call — the sequential path reuses its buffer —
// so consumers must encode or copy before returning.
//
// Backward plans cannot stream: they sweep targets and need one global sort
// to restore lexicographic order, so nothing is correctly ordered until
// every sweep finished. They degrade cleanly to materialize-then-emit in
// bounded batches — the consumer-side contract (ordered bounded batches) is
// unchanged; only the peak memory reverts to the buffered path's.
func PairsProductEmit(ctx context.Context, p *Product, opts Options, emit func(pairs [][2]int) error) error {
	m := opts.Meter
	if m == nil {
		m = NewMeter(ctx, opts.Budget)
	}
	plan := opts.Plan
	if plan.Backward {
		pairs, err := pairsProductMeter(p, opts, m)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(pairs); lo += emitBatchRows {
			hi := lo + emitBatchRows
			if hi > len(pairs) {
				hi = len(pairs)
			}
			if err := emit(pairs[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}

	n := p.G.NumNodes()
	workers := plan.Workers
	if workers == 0 {
		workers = Parallelism(opts.Parallelism)
	}
	kern := p.kern
	kern.Counters().CountPlan(pg.Plan{Workers: workers, Shards: plan.Shards})
	if workers <= 1 {
		// Sequential: each sweep's node list feeds a reused batch buffer, so
		// peak memory is O(batch) on top of the sweep scratch — no per-source
		// pair slice is ever materialized.
		sc := kern.GetScratch()
		defer kern.PutScratch(sc)
		batch := make([][2]int, 0, emitBatchRows)
		for u := 0; u < n; u++ {
			if !p.G.NodeAlive(u) {
				continue
			}
			vs, err := kern.Sweep(u, sc, m, plan, true)
			if err != nil {
				// A sweep error (budget trip, cancel, kill) only voids the
				// erroring source: rows from completed sources are already
				// charged and correctly ordered, so hand them over before
				// surfacing the error — mid-stream consumers keep everything
				// produced up to the trip.
				if len(batch) > 0 {
					if emitErr := emit(batch); emitErr != nil {
						return emitErr
					}
				}
				return err
			}
			for _, v := range vs {
				batch = append(batch, [2]int{u, v})
				if len(batch) == cap(batch) {
					if err := emit(batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
		}
		if len(batch) > 0 {
			return emit(batch)
		}
		return nil
	}
	return pg.ForEachEmit(n, workers, kern.GetScratch, kern.PutScratch, func(u int, sc *Scratch) ([][2]int, error) {
		if !p.G.NodeAlive(u) {
			return nil, nil
		}
		vs, err := kern.Sweep(u, sc, m, plan, true)
		if err != nil {
			return nil, err
		}
		part := make([][2]int, len(vs))
		for i, v := range vs {
			part[i] = [2]int{u, v}
		}
		return part, nil
	}, emit)
}
