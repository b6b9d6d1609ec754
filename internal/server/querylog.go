package server

import (
	"encoding/json"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/obs"
)

// The structured query event log. Every admitted query — success, timeout,
// budget kill, client abort, operator kill — is folded into exactly one
// obs.CompletedQuery record by buildRecord, and that one record feeds three
// sinks: the JSONL query log (Config.QueryLog), the slow-query WARN (a
// threshold filter over the same record), and the registry's recent-queries
// ring (GET /v1/queries/recent). One builder, three sinks: the views cannot
// drift.

// buildRecord assembles the completion record of one admitted query. The
// trace supplies the plan line, span timings, and (for errored queries,
// which have no Response) the budget consumption the query racked up before
// it died.
func buildRecord(act *obs.Active, outcome string, err error, elapsed time.Duration, tr *obs.Trace, resp *core.Response) obs.CompletedQuery {
	spans := tr.Spans()
	states, rows := obs.TotalStates(spans), obs.TotalRows(spans)
	var graphRev uint64
	var analyze any
	if resp != nil {
		states, rows = resp.StatesVisited, resp.RowsProduced
		graphRev = resp.GraphRev
		if resp.Analyze != nil {
			analyze = resp.Analyze
		}
	}
	rec := obs.CompletedQuery{
		ID:        act.ID,
		Graph:     act.Graph,
		GraphRev:  graphRev,
		Query:     act.Query,
		Lang:      act.Lang,
		Outcome:   outcome,
		Plan:      tr.Attr("plan"),
		StartedAt: act.Started,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		States:    states,
		Rows:      rows,
		Spans:     spans,
		Analyze:   analyze,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// logQuery writes rec to the query event log (one JSONL line per admitted
// query) when one is configured, and emits the slow-query WARN when the
// threshold is configured and elapsed reaches it.
func (s *Server) logQuery(rec obs.CompletedQuery, elapsed time.Duration) {
	if s.cfg.QueryLog != nil {
		s.logMu.Lock()
		enc := json.NewEncoder(s.cfg.QueryLog)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(rec) // Encode appends the newline: one record per line
		s.logMu.Unlock()
	}
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		attrs := []any{
			"id", rec.ID,
			"graph", rec.Graph,
			"query", rec.Query,
			"elapsed_ms", rec.ElapsedMS,
			"outcome", rec.Outcome,
			"plan", rec.Plan,
			"spans", obs.SpansString(rec.Spans),
			"states", rec.States,
			"rows", rec.Rows,
		}
		// Analyze-mode slow queries carry their annotated plan: the
		// estimate-vs-actual audit is most valuable exactly when a query was
		// slower than the planner thought it would be.
		if rec.Analyze != nil {
			if b, err := json.Marshal(rec.Analyze); err == nil {
				attrs = append(attrs, "analyze", string(b))
			}
		}
		s.logger().Warn("slow query", attrs...)
	}
}

// observeStages folds one finished query's span durations into the
// per-stage latency histograms (gq_stage_duration_seconds): one sample per
// stage the query went through, summed over the stage's spans (a streamed
// query's "stream" stage is the slices evaluation spent blocked on the
// chunk channel plus the final drain).
func (s *Server) observeStages(spans []obs.Span) {
	var dur [len(stageNames)]time.Duration
	var seen [len(stageNames)]bool
	for _, sp := range spans {
		for i, name := range stageNames {
			if sp.Name == name {
				dur[i] += time.Duration(sp.DurNS)
				seen[i] = true
				break
			}
		}
	}
	for i, ok := range seen {
		if ok {
			s.stageLatency[i].Observe(dur[i].Seconds())
		}
	}
}
