package server

import (
	"sync/atomic"

	"graphquery/internal/core"
	"graphquery/internal/pg"
	"graphquery/internal/store"
)

// counters is the server's hot-path instrumentation: every field is an
// independent atomic so request handling never takes a lock to account
// itself, and Stats() assembles a (possibly slightly torn, individually
// exact) snapshot.
type counters struct {
	accepted       atomic.Int64 // admitted past the limiter
	completed      atomic.Int64 // finished with a 200
	canceled       atomic.Int64 // client went away (499)
	killed         atomic.Int64 // killed via POST /v1/queries/{id}/cancel
	timeouts       atomic.Int64 // deadline exceeded (504)
	budgetExceeded atomic.Int64 // resource budget hit (422)
	rejected       atomic.Int64 // admission control said no (429)
	errors         atomic.Int64 // invalid/unknown/internal (4xx/5xx rest)
	inFlight       atomic.Int64 // currently evaluating

	statesVisited atomic.Int64 // product states expanded, summed over queries
	rowsReturned  atomic.Int64 // results returned, summed over queries
	rowsStreamed  atomic.Int64 // rows handed to streamed (NDJSON) responses
	writeErrors   atomic.Int64 // response encode/write failures (buffered + streamed)

	// kinds counts completed (200) queries by response kind, indexed like
	// kindNames — the /v1/statz "kinds" object and the gq_queries_total
	// metric family.
	kinds [len(kindNames)]atomic.Int64
}

// kindNames are the response kinds the engine produces, the label values of
// gq_queries_total{kind=...}.
var kindNames = [...]string{"pairs", "paths", "rows", "matches", "spans", "relation", "bag"}

// countKind accounts one completed query under its response kind.
func (c *counters) countKind(kind string) {
	for i, n := range kindNames {
		if n == kind {
			c.kinds[i].Add(1)
			return
		}
	}
}

// ServerStats is the /v1/statz snapshot.
type ServerStats struct {
	Accepted       int64 `json:"accepted"`
	Completed      int64 `json:"completed"`
	Canceled       int64 `json:"canceled"`
	Killed         int64 `json:"killed"`
	Timeouts       int64 `json:"timeouts"`
	BudgetExceeded int64 `json:"budget_exceeded"`
	Rejected       int64 `json:"rejected"`
	Errors         int64 `json:"errors"`
	InFlight       int64 `json:"in_flight"`
	Queued         int64 `json:"queued"`
	StatesVisited  int64 `json:"states_visited"`
	RowsReturned   int64 `json:"rows_returned"`
	RowsStreamed   int64 `json:"rows_streamed"`
	WriteErrors    int64 `json:"write_errors"`

	// Kinds counts completed queries by response kind ("pairs", "paths",
	// "rows", "matches", "spans", "relation", "bag").
	Kinds map[string]int64 `json:"kinds"`

	Graphs map[string]GraphStats `json:"graphs"`
	Store  store.Stats           `json:"store"`
}

// GraphStats describes one registered graph: its size, plan cache, and
// the unified runtime's kernel counters (work done and plans chosen,
// cumulative over the engine's lifetime).
type GraphStats struct {
	Nodes   int                 `json:"nodes"`
	Edges   int                 `json:"edges"`
	Cache   core.CacheStats     `json:"cache"`
	Runtime pg.CountersSnapshot `json:"runtime"`
}

// Stats snapshots the server's counters and per-graph plan-cache stats.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Accepted:       s.stats.accepted.Load(),
		Completed:      s.stats.completed.Load(),
		Canceled:       s.stats.canceled.Load(),
		Killed:         s.stats.killed.Load(),
		Timeouts:       s.stats.timeouts.Load(),
		BudgetExceeded: s.stats.budgetExceeded.Load(),
		Rejected:       s.stats.rejected.Load(),
		Errors:         s.stats.errors.Load(),
		InFlight:       s.stats.inFlight.Load(),
		Queued:         s.queued.Load(),
		StatesVisited:  s.stats.statesVisited.Load(),
		RowsReturned:   s.stats.rowsReturned.Load(),
		RowsStreamed:   s.stats.rowsStreamed.Load(),
		WriteErrors:    s.stats.writeErrors.Load(),
		Kinds:          make(map[string]int64, len(kindNames)),
		Graphs:         make(map[string]GraphStats),
	}
	for i, name := range kindNames {
		st.Kinds[name] = s.stats.kinds[i].Load()
	}
	s.mu.RLock()
	for name, e := range s.engines {
		g := e.Graph()
		st.Graphs[name] = GraphStats{
			Nodes:   g.NumNodes(),
			Edges:   g.NumEdges(),
			Cache:   e.CacheStats(),
			Runtime: e.RuntimeStats(),
		}
	}
	s.mu.RUnlock()
	st.Store = s.store.Stats()
	return st
}
