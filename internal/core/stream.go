// Result delivery: every query leaves the engine through QueryStream.
//
// The paper's complexity landscape (Section 6.3 exponential-output graphs,
// Section 6.1 bag-semantics explosion) makes the result set, not the
// evaluation, the memory bomb — so results are handed to a Sink row by row,
// and "buffered" is nothing but a sink that appends (or no sink at all:
// QueryCtx fills the typed Response fields). How early rows reach the sink
// is a property of the evaluator, not of the dispatch:
//
//   - Kernel tier (kind "pairs" via plain RPQ and the Cypher fragment,
//     plannedPairs): rows flow straight out of the product-graph fan-out
//     (eval.PairsProductEmit) while sweeps are still running. Memory per
//     query is O(fan-out window), not O(result), and a blocked sink
//     throttles the worker pool (backpressure). A backward plan degrades
//     inside eval — collect, sort, deliver — without the engine noticing.
//   - Render tier (paths, rows, matches, spans, relation, and pairs from
//     the 2RPQ tier): the evaluator materializes its typed result, then
//     streamRendered renders and hands over one row at a time — delivery
//     memory is O(row), evaluation memory is the evaluator's.
//
// Kind "bag" has one aggregate value and never touches the sink; serving
// layers read it from the Response.
package core

import (
	"context"
	"errors"

	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

// Sink receives one query's results incrementally. Begin is called at most
// once, after compilation and planning succeeded and before the first row,
// naming the result kind and (for kinds "rows" and "relation") the column
// header. Row then delivers one result element at a time, rendered to wire
// form: [2]string for "pairs", string for "paths"/"matches"/"spans",
// []string for "rows"/"relation". The engine is the one place typed
// results become wire rows, so every serving format is an encoding of the
// same row stream.
//
// Row may be called from evaluation worker goroutines, but calls are never
// concurrent and are ordered (happens-before) — a Sink needs no locking of
// its own. Values passed to Row are owned by the sink. Returning an error
// from either method stops evaluation; returning ErrStopStream stops it
// and reports success (the sink has all it wants — a cursor page filled).
type Sink interface {
	Begin(kind string, columns []string) error
	Row(v any) error
}

// ErrStopStream is the sentinel a Sink returns to stop evaluation early
// without reporting an error.
var ErrStopStream = errors.New("core: stop stream")

// QueryStream evaluates one request under ctx, delivering results through
// sink: resolve the request's bounds against the engine defaults, mint the
// query-global meter, fix the graph snapshot, dispatch, and stamp the
// response with the meter readings and trace artifacts. The returned
// Response carries that accounting with the result fields empty and
// Streamed set — except for kind "bag", which skips the sink entirely and
// returns its value in the Response. A nil sink means "materialize": the
// typed result fields are filled instead (QueryCtx). Errors surface in the
// engine taxonomy either way; rows delivered to the sink before an error
// remain delivered (the serving layer's trailer protocol reports the
// outcome in-band).
func (e *Engine) QueryStream(ctx context.Context, req Request, sink Sink) (*Response, error) {
	maxLen := req.MaxLen
	if maxLen <= 0 {
		maxLen = e.MaxLen
	}
	limit := req.Limit
	if limit <= 0 {
		limit = e.Limit
	}
	b := req.Budget
	if b.MaxStates <= 0 {
		b.MaxStates = e.Budget.MaxStates
	}
	if b.MaxRows <= 0 {
		b.MaxRows = e.Budget.MaxRows
	}
	var ss *eval.SweepStats
	if req.Analyze {
		ss = &eval.SweepStats{}
	}
	m := pg.NewMeter(ctx, b, req.Progress, ss)
	tr := req.Trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	// Stage sampling rides the spans the engine already records: every
	// span opened on this trace updates req.Progress's stage.
	tr.BindProgress(req.Progress)

	// One atomic load fixes the graph snapshot for the whole query; the pin
	// (if the graph came from a live store) keeps that snapshot accounted
	// for until evaluation finishes, even if writers commit meanwhile.
	gs := e.cur.Load()
	defer gs.acquire()()
	resp, err := e.dispatch(gs, req, m, tr, maxLen, limit, sink)
	if err != nil {
		return nil, classify(err)
	}
	resp.StatesVisited = m.States()
	resp.RowsProduced = m.Rows()
	resp.Plan = tr.Attr("plan")
	resp.Spans = tr.Spans()
	resp.G = gs.g
	resp.GraphRev = gs.rev
	if req.Analyze {
		resp.Analyze = e.annotate(req, resp, tr, ss)
	}
	return resp, nil
}

// streamRendered delivers a materialized response through the sink, row by
// row: the one place typed results of every kind are rendered to wire rows
// (plannedPairs renders its own pairs as they leave the fan-out), one
// rendered row live at a time. The materialized fields are cleared
// afterwards (the rows are with the consumer now) and Streamed records the
// delivered count. Returns the first sink error, including ErrStopStream,
// for the caller to interpret.
func streamRendered(g *graph.Graph, resp *Response, sink Sink) error {
	var cols []string
	switch resp.Kind {
	case "rows":
		if resp.Rows != nil {
			cols = resp.Rows.Head
		}
	case "relation":
		if resp.Rel != nil {
			cols = resp.Rel.Attrs()
		}
	}
	err := sink.Begin(resp.Kind, cols)
	n := 0
	row := func(v any) error {
		if err := sink.Row(v); err != nil {
			return err
		}
		n++
		return nil
	}
	if err == nil {
		switch resp.Kind {
		case "pairs":
			for _, pr := range resp.Pairs {
				if err = row([2]string{string(pr[0]), string(pr[1])}); err != nil {
					break
				}
			}
		case "paths":
			for _, p := range resp.Paths {
				if err = row(p.Format(g)); err != nil {
					break
				}
			}
		case "rows":
			if resp.Rows != nil {
				for _, r := range resp.Rows.Rows {
					rendered := make([]string, len(r))
					for j, v := range r {
						rendered[j] = v.Format(g)
					}
					if err = row(rendered); err != nil {
						break
					}
				}
			}
		case "matches", "spans":
			for _, s := range resp.Matches {
				if err = row(s); err != nil {
					break
				}
			}
		case "relation":
			if resp.Rel != nil {
				for _, t := range resp.Rel.Sorted() {
					rendered := make([]string, len(t))
					for j, c := range t {
						rendered[j] = c.Format(g)
					}
					if err = row(rendered); err != nil {
						break
					}
				}
			}
		}
	}
	resp.Streamed = n
	resp.Pairs, resp.Paths, resp.Rows, resp.Matches, resp.Rel = nil, nil, nil, nil, nil
	return err
}
