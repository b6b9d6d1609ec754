package pg

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"graphquery/internal/obs"
)

// The serving-layer error taxonomy (Section 6.1/6.3 motivate it: evaluation
// cost can blow up combinatorially, so a query service must be able to stop
// a run and say precisely why). ErrCanceled covers cooperative cancellation
// — client disconnect and deadline expiry both unwrap to it, and deadline
// expiry additionally unwraps to context.DeadlineExceeded so callers can
// tell a timeout from an abort. ErrBudgetExceeded covers per-query resource
// budgets (product states visited, result rows produced).
//
// The error texts keep their historical "eval:" prefix: the meter began
// life in internal/eval and the serving layer's client-visible messages
// must not change under the runtime unification.
var (
	// ErrCanceled is returned when evaluation stops because its context was
	// canceled or its deadline expired.
	ErrCanceled = errors.New("eval: canceled")
	// ErrBudgetExceeded is returned when evaluation exceeds a resource
	// budget. Concrete errors are *BudgetError values wrapping it.
	ErrBudgetExceeded = errors.New("eval: budget exceeded")
)

// BudgetError reports which resource budget a query exhausted.
type BudgetError struct {
	Resource string // "states" (product states visited) or "rows"
	Limit    int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("eval: %s budget exceeded (limit %d)", e.Resource, e.Limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// canceledError carries the context cause, so errors.Is matches both
// ErrCanceled and the underlying context.Canceled/context.DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "eval: canceled: " + e.cause.Error() }

func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// Budget caps the resources one query evaluation may consume. Zero fields
// mean unlimited.
type Budget struct {
	// MaxStates bounds the number of product-graph states visited across
	// all worker goroutines of the query (the unit of evaluation work).
	MaxStates int64
	// MaxRows bounds the number of result rows / paths / pairs produced.
	// Unlike enumeration limits (which truncate), exceeding MaxRows is an
	// error.
	MaxRows int64
}

// CheckInterval is how many product states an evaluator may expand between
// cooperative checks. Checks cost an atomic add plus a context poll, so
// they are amortized: cancellation latency is bounded by the time to expand
// CheckInterval states per worker (microseconds), while the hot loop stays
// branch-cheap. Every evaluator in the repo runs its budget-check loop
// through this package (the kernel or a Ticker); the interval — every 256
// states — is therefore defined exactly once.
const CheckInterval = 256

// Meter is the live instrument of one query: it carries the context and
// enforces the budget. One meter is shared by every goroutine and every
// evaluation stage of the query, so budgets are global to the query, and a
// single worker exceeding them stops the others at their next check (the
// shared counters are already over the limit). All methods are safe for
// concurrent use and nil-safe — a nil *Meter means "unlimited,
// uncancellable" and costs nothing.
type Meter struct {
	ctx       context.Context
	maxStates int64
	maxRows   int64
	states    atomic.Int64
	rows      atomic.Int64

	// prog, when set, mirrors the meter's readings into a live Progress
	// sampled by the serving layer's in-flight registry. Updates ride the
	// amortized tick (every CheckInterval states), so live introspection
	// adds no new branches to evaluation hot loops.
	prog *obs.Progress

	// sweep, when set, is the analyze-mode telemetry sink: the kernel
	// records per-sweep and per-level statistics into it at sweep exits and
	// level barriers. Nil for every non-analyze query.
	sweep *SweepStats
}

// NewMeter builds the meter for ctx and b. p, when non-nil, is the
// live-progress sink every states/rows batch is also added to; ss, when
// non-nil, is the analyze-mode telemetry sink the kernel records sweep and
// level statistics into at its existing exit and barrier sites. It returns
// nil — the free meter — when ctx can never be canceled, b is zero, and
// both sinks are off, so uninstrumented callers (context.Background, no
// budget) pay nothing; a sink forces a non-nil meter, because it travels
// on it.
func NewMeter(ctx context.Context, b Budget, p *obs.Progress, ss *SweepStats) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil && ss == nil && ctx.Done() == nil && b == (Budget{}) {
		return nil
	}
	return &Meter{ctx: ctx, maxStates: b.MaxStates, maxRows: b.MaxRows, prog: p, sweep: ss}
}

// SweepStatsSink returns the meter's analyze-mode telemetry sink, nil for
// non-analyze queries (and on a nil meter). Kernel code guards every
// recording site with it, so analyze-off sweeps pay one nil check per
// sweep exit or level barrier and nothing more.
func (m *Meter) SweepStatsSink() *SweepStats {
	if m == nil {
		return nil
	}
	return m.sweep
}

// Tick records n newly visited product states and reports whether the query
// must stop: states budget exhausted or context canceled.
func (m *Meter) Tick(n int64) error {
	if m == nil {
		return nil
	}
	m.prog.AddStates(n)
	if total := m.states.Add(n); m.maxStates > 0 && total > m.maxStates {
		return &BudgetError{Resource: "states", Limit: m.maxStates}
	}
	return m.ctxErr()
}

// AddRows records n produced result rows and reports whether the rows
// budget is exhausted.
func (m *Meter) AddRows(n int64) error {
	if m == nil {
		return nil
	}
	m.prog.AddRows(n)
	if total := m.rows.Add(n); m.maxRows > 0 && total > m.maxRows {
		return &BudgetError{Resource: "rows", Limit: m.maxRows}
	}
	return nil
}

// SweepProgress reports a kernel sweep's live shape — the current frontier
// length and the adjacency entries scanned since the last report — to the
// meter's progress sink. Called only at the kernel's amortized tick sites
// (and on sweep exit), never per state; a meter without a sink ignores it.
func (m *Meter) SweepProgress(frontier, edges int64) {
	if m == nil || m.prog == nil {
		return
	}
	m.prog.SetFrontier(frontier)
	m.prog.AddEdges(edges)
}

// Check polls for cancellation and an already-exhausted states budget
// without recording work — the cheap per-item check of fan-out drivers.
func (m *Meter) Check() error {
	if m == nil {
		return nil
	}
	if m.maxStates > 0 && m.states.Load() > m.maxStates {
		return &BudgetError{Resource: "states", Limit: m.maxStates}
	}
	return m.ctxErr()
}

func (m *Meter) ctxErr() error {
	if err := m.ctx.Err(); err != nil {
		if cause := context.Cause(m.ctx); cause != nil {
			err = cause
		}
		return &canceledError{cause: err}
	}
	return nil
}

// States returns the product states visited so far.
func (m *Meter) States() int64 {
	if m == nil {
		return 0
	}
	return m.states.Load()
}

// Rows returns the result rows produced so far.
func (m *Meter) Rows() int64 {
	if m == nil {
		return 0
	}
	return m.rows.Load()
}

// Ticker is the amortized budget-check instrument for evaluators whose
// search loops are not the dense kernel — the DFS path enumerators and the
// register-automaton configuration search. Call Step once per expanded
// state/configuration and Flush when the loop ends: the shared meter is
// ticked and the runtime counters updated once every CheckInterval steps
// instead of on each one. The zero Ticker (no meter, no counters) is valid
// and free.
type Ticker struct {
	m       *Meter
	c       *Counters
	pending int64
}

// NewTicker builds a ticker feeding the given meter and counters; either
// may be nil.
func NewTicker(m *Meter, c *Counters) Ticker {
	return Ticker{m: m, c: c}
}

// Step records one expanded state and, every CheckInterval steps, flushes
// the batch to the meter — returning the meter's verdict (cancellation or
// an exhausted states budget).
func (t *Ticker) Step() error {
	t.pending++
	if t.pending >= CheckInterval {
		return t.Flush()
	}
	return nil
}

// Flush forces the pending batch out to the meter and counters; call it
// when the search loop ends so the tail below one interval is accounted.
func (t *Ticker) Flush() error {
	n := t.pending
	if n == 0 {
		return nil
	}
	t.pending = 0
	t.c.AddStates(n)
	return t.m.Tick(n)
}
