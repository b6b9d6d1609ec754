package pg

import "sync/atomic"

// Counters is the kernel's always-on runtime instrumentation: cumulative
// work counters an engine attaches once and reads forever (surfaced through
// core.Engine and the server's /v1/statz). Every field is an independent
// atomic, updated in amortized batches by the kernel (one flush per
// reachability sweep, one per Ticker interval), so instrumentation costs
// nothing measurable on the hot path. All methods are nil-safe: a nil
// *Counters records nothing and costs nothing.
type Counters struct {
	statesExpanded atomic.Int64 // product states dequeued and expanded
	edgesScanned   atomic.Int64 // adjacency entries examined (incl. non-matching in dense scans)
	frontierPeak   atomic.Int64 // max BFS frontier length observed by any sweep
	planForward    atomic.Int64 // sweeps run source→target
	planBackward   atomic.Int64 // sweeps run target→source over the reversed automaton
	planParallel   atomic.Int64 // queries fanned out over >1 worker
	planSequential atomic.Int64 // queries evaluated by a single worker
	tablesBuilt    atomic.Int64 // neighbor tables built on a graph's chain at this kernel's request
	condensations  atomic.Int64 // all-sources calls that condensed their product (condense.go)
	batchesRun     atomic.Int64 // batches of the all-sources driver that swept at least one source
}

// AddStates records n expanded product states (or search configurations).
func (c *Counters) AddStates(n int64) {
	if c != nil && n > 0 {
		c.statesExpanded.Add(n)
	}
}

// AddEdges records n scanned adjacency entries.
func (c *Counters) AddEdges(n int64) {
	if c != nil && n > 0 {
		c.edgesScanned.Add(n)
	}
}

// ObserveFrontier folds one sweep's peak frontier length into the running
// maximum.
func (c *Counters) ObserveFrontier(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.frontierPeak.Load()
		if n <= cur || c.frontierPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// CountPlan records which strategy the planner chose for one query.
func (c *Counters) CountPlan(p Plan) {
	if c == nil {
		return
	}
	if p.Backward {
		c.planBackward.Add(1)
	} else {
		c.planForward.Add(1)
	}
	if p.Workers > 1 {
		c.planParallel.Add(1)
	} else {
		c.planSequential.Add(1)
	}
}

// addNeighborTablesBuilt records one neighbor table a sweep of this kernel
// paid for and built (graph.BuyNeighborTable). Commits that leave a label
// alone leave its tables valid, so on a served graph this stays flat between
// compactions once the hot labels are bought.
func (c *Counters) addNeighborTablesBuilt() {
	if c != nil {
		c.tablesBuilt.Add(1)
	}
}

// addCondensationBuilt records one all-sources call that built the
// condensation of its product and finished on it.
func (c *Counters) addCondensationBuilt() {
	if c != nil {
		c.condensations.Add(1)
	}
}

// addBatchRun records one batch of the all-sources driver that had a source
// to sweep: a window whose sources were all idle is charged, not run.
func (c *Counters) addBatchRun() {
	if c != nil {
		c.batchesRun.Add(1)
	}
}

// CountersSnapshot is a point-in-time copy of the counters, shaped for JSON
// (the /v1/statz payload). Fields may be mutually torn by concurrent
// updates but are individually exact.
type CountersSnapshot struct {
	StatesExpanded int64 `json:"states_expanded"`
	EdgesScanned   int64 `json:"edges_scanned"`
	FrontierPeak   int64 `json:"frontier_peak"`
	PlanForward    int64 `json:"plan_forward"`
	PlanBackward   int64 `json:"plan_backward"`
	PlanParallel   int64 `json:"plan_parallel"`
	PlanSequential int64 `json:"plan_sequential"`

	NeighborTablesBuilt int64 `json:"neighbor_tables_built"`
	CondensationsBuilt  int64 `json:"condensations_built"`
	BatchesRun          int64 `json:"batches_run"`
}

// Snapshot reads the counters. A nil receiver yields the zero snapshot.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		StatesExpanded: c.statesExpanded.Load(),
		EdgesScanned:   c.edgesScanned.Load(),
		FrontierPeak:   c.frontierPeak.Load(),
		PlanForward:    c.planForward.Load(),
		PlanBackward:   c.planBackward.Load(),
		PlanParallel:   c.planParallel.Load(),
		PlanSequential: c.planSequential.Load(),

		NeighborTablesBuilt: c.tablesBuilt.Load(),
		CondensationsBuilt:  c.condensations.Load(),
		BatchesRun:          c.batchesRun.Load(),
	}
}
