package server

import (
	"net/http"
	"runtime"
	"sort"

	"graphquery/internal/obs"
	"graphquery/internal/store"
)

// GET /metrics: the Prometheus text-format view of the server. Every value
// is rendered from one Stats() snapshot — the same snapshot function behind
// /v1/statz — so the two endpoints cannot drift; the only metric with no
// statz counterpart is the latency histogram, which has no JSON rendering.
//
// Naming maps 1:1 onto ServerStats fields: monotonic counters get a
// _total suffix (gq_accepted_total ↔ "accepted"), point-in-time values are
// gauges (gq_in_flight, gq_queued), per-graph families carry a graph
// label, and gq_query_duration_seconds is the admitted-query wall-clock
// histogram (queue wait included).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := obs.NewMetricWriter(w)

	m.Counter("gq_accepted_total", "Queries admitted past the concurrency limiter.", st.Accepted, nil)
	m.Counter("gq_completed_total", "Queries that finished with a 200.", st.Completed, nil)
	m.Counter("gq_canceled_total", "Queries aborted by the client (499).", st.Canceled, nil)
	m.Counter("gq_killed_total", "Queries killed via POST /v1/queries/{id}/cancel.", st.Killed, nil)
	m.Counter("gq_timeouts_total", "Queries that exceeded their deadline (504).", st.Timeouts, nil)
	m.Counter("gq_budget_exceeded_total", "Queries that exhausted a resource budget (422).", st.BudgetExceeded, nil)
	m.Counter("gq_rejected_total", "Queries rejected by admission control (429).", st.Rejected, nil)
	m.Counter("gq_errors_total", "Queries rejected as invalid or failed internally.", st.Errors, nil)
	m.Gauge("gq_in_flight", "Queries evaluating right now.", st.InFlight, nil)
	m.Gauge("gq_queued", "Admissions waiting for a concurrency slot.", st.Queued, nil)
	m.Counter("gq_states_visited_total", "Product states expanded, summed over queries.", st.StatesVisited, nil)
	m.Counter("gq_rows_returned_total", "Result rows returned, summed over queries.", st.RowsReturned, nil)
	m.Counter("gq_rows_streamed_total", "Result rows handed to streamed (NDJSON) responses.", st.RowsStreamed, nil)
	m.Counter("gq_write_errors_total", "Response encode/write failures, buffered and streamed.", st.WriteErrors, nil)

	// Per-kind completions: one family, one label set per response kind,
	// same fixed kind list as /v1/statz's "kinds" object.
	m.Family("gq_queries_total", "Completed queries by response kind.", "counter")
	for _, kind := range kindNames {
		m.Sample("gq_queries_total", st.Kinds[kind], map[string]string{"kind": kind})
	}

	names := make([]string, 0, len(st.Graphs))
	for name := range st.Graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, fam := range graphFamilies {
		m.Family(fam.name, fam.help, fam.typ)
		for _, name := range names {
			m.Sample(fam.name, fam.value(st.Graphs[name]), map[string]string{"graph": name})
		}
	}

	// Live-store families: the aggregate counters, then per-graph status
	// under a graph label — all from the same Stats() snapshot, so they
	// match /v1/statz's "store" object exactly.
	m.Gauge("gq_store_graphs", "Graphs owned by the live store.", int64(st.Store.Graphs), nil)
	m.Counter("gq_store_loads_total", "Graphs bulk-loaded into the store.", st.Store.Loads, nil)
	m.Counter("gq_store_deletes_total", "Graphs deleted from the store.", st.Store.Deletes, nil)
	m.Counter("gq_store_mutation_batches_total", "Mutation batches committed.", st.Store.MutationBatches, nil)
	m.Counter("gq_store_mutation_ops_total", "Individual mutation operations committed.", st.Store.MutationOps, nil)
	m.Counter("gq_store_compactions_total", "Background delta-log compactions completed.", st.Store.Compactions, nil)
	for _, fam := range storeGraphFamilies {
		m.Family(fam.name, fam.help, fam.typ)
		for _, gs := range st.Store.PerGraph {
			m.Sample(fam.name, fam.value(gs), map[string]string{"graph": gs.Name})
		}
	}

	m.Histogram("gq_query_duration_seconds",
		"Wall-clock of admitted queries, queue wait included.", s.latency, nil)

	m.Histogram("gq_cardest_qerror",
		"Root estimate-vs-actual q-error of analyze-mode queries.", s.qerror, nil)

	// Go runtime health, from one ReadMemStats snapshot per scrape (stop-
	// the-world, microseconds at these heap sizes — fine at scrape cadence).
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Gauge("gq_go_goroutines", "Goroutines currently live.", int64(runtime.NumGoroutine()), nil)
	m.Gauge("gq_go_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(ms.HeapAlloc), nil)
	m.Family("gq_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	m.SampleFloat("gq_go_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9, nil)

	// Per-stage latency: one family, one label set per evaluation stage.
	// Stage durations are recorded from the same trace spans the query
	// record carries, so sum(gq_stage_duration_seconds_sum) never exceeds
	// gq_query_duration_seconds_sum (stages are within the wall-clock).
	m.Family("gq_stage_duration_seconds",
		"Duration of each evaluation stage across admitted queries.", "histogram")
	for i, name := range stageNames {
		m.HistogramSample("gq_stage_duration_seconds", s.stageLatency[i],
			map[string]string{"stage": name})
	}
}

// qErrorBuckets are the gq_cardest_qerror histogram bounds: powers of two
// from exact (q-error is >= 1 by construction) through four orders of
// magnitude — the range where an estimate goes from trustworthy to useless.
func qErrorBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384}
}

// graphFamilies are the per-graph metric families, each one field of
// GraphStats under a graph label.
var graphFamilies = []struct {
	name, help, typ string
	value           func(GraphStats) int64
}{
	{"gq_graph_nodes", "Nodes in the graph.", "gauge",
		func(g GraphStats) int64 { return int64(g.Nodes) }},
	{"gq_graph_edges", "Edges in the graph.", "gauge",
		func(g GraphStats) int64 { return int64(g.Edges) }},
	{"gq_plan_cache_hits_total", "Plan-cache lookups answered from cache.", "counter",
		func(g GraphStats) int64 { return g.Cache.Hits }},
	{"gq_plan_cache_misses_total", "Plan-cache lookups that had to compile.", "counter",
		func(g GraphStats) int64 { return g.Cache.Misses }},
	{"gq_plan_cache_evictions_total", "Plans dropped by the LRU bound.", "counter",
		func(g GraphStats) int64 { return g.Cache.Evictions }},
	{"gq_plan_cache_size", "Plans currently cached.", "gauge",
		func(g GraphStats) int64 { return int64(g.Cache.Size) }},
	{"gq_plan_cache_capacity", "Maximum plans retained.", "gauge",
		func(g GraphStats) int64 { return int64(g.Cache.Capacity) }},
	{"gq_runtime_states_expanded_total", "Product states expanded by the kernel.", "counter",
		func(g GraphStats) int64 { return g.Runtime.StatesExpanded }},
	{"gq_runtime_edges_scanned_total", "Graph edges scanned by the kernel.", "counter",
		func(g GraphStats) int64 { return g.Runtime.EdgesScanned }},
	{"gq_runtime_frontier_peak", "Largest BFS frontier observed.", "gauge",
		func(g GraphStats) int64 { return g.Runtime.FrontierPeak }},
	{"gq_runtime_plan_forward_total", "Kernel sweeps under a forward plan.", "counter",
		func(g GraphStats) int64 { return g.Runtime.PlanForward }},
	{"gq_runtime_plan_backward_total", "Kernel sweeps under a backward plan.", "counter",
		func(g GraphStats) int64 { return g.Runtime.PlanBackward }},
	{"gq_runtime_plan_parallel_total", "Kernel sweeps fanned out in parallel.", "counter",
		func(g GraphStats) int64 { return g.Runtime.PlanParallel }},
	{"gq_runtime_plan_sequential_total", "Kernel sweeps run sequentially.", "counter",
		func(g GraphStats) int64 { return g.Runtime.PlanSequential }},
	{"gq_runtime_neighbor_tables_built_total", "Per-label neighbor tables built on the graph's version chain; flat across commits that leave the queried labels alone.", "counter",
		func(g GraphStats) int64 { return g.Runtime.NeighborTablesBuilt }},
	{"gq_runtime_condensations_built_total", "All-pairs calls that condensed their product graph and finished on its component DAG instead of the level loop.", "counter",
		func(g GraphStats) int64 { return g.Runtime.CondensationsBuilt }},
}

// storeGraphFamilies are the per-graph live-store families, each one field
// of store.GraphStatus under a graph label.
var storeGraphFamilies = []struct {
	name, help, typ string
	value           func(store.GraphStatus) int64
}{
	{"gq_store_graph_version", "Client-visible commit counter of the graph.", "gauge",
		func(g store.GraphStatus) int64 { return int64(g.Version) }},
	{"gq_store_graph_rev", "Snapshot revision (bumps on commits and compactions).", "gauge",
		func(g store.GraphStatus) int64 { return int64(g.Rev) }},
	{"gq_store_graph_delta_ops", "Mutations in the delta log awaiting compaction.", "gauge",
		func(g store.GraphStatus) int64 { return int64(g.DeltaOps) }},
	{"gq_store_graph_compactions_total", "Delta-log compactions folded into this graph.", "counter",
		func(g store.GraphStatus) int64 { return g.Compactions }},
	{"gq_store_graph_pins", "Snapshots pinned by in-flight queries.", "gauge",
		func(g store.GraphStatus) int64 { return g.Pins }},
	{"gq_store_graph_live_nodes", "Live (non-tombstoned) nodes.", "gauge",
		func(g store.GraphStatus) int64 { return int64(g.LiveNodes) }},
	{"gq_store_graph_live_edges", "Live (non-tombstoned) edges.", "gauge",
		func(g store.GraphStatus) int64 { return int64(g.LiveEdges) }},
}
