// Result delivery: every query leaves the engine through QueryStream.
//
// The paper's complexity landscape (Section 6.3 exponential-output graphs,
// Section 6.1 bag-semantics explosion) makes the result set, not the
// evaluation, the memory bomb — so results are handed to a Sink in batches
// the sink encodes into its own buffer (encode.go: one row encoder for
// every kind and both serving formats), and "buffered" is nothing but a
// sink that keeps appending (or no sink at all: QueryCtx fills the typed
// Response fields). How early rows reach the sink is a property of the
// row's evaluator (kinds.go), not of the table:
//
//   - Kernel tier (kind "pairs": plain RPQs, the Cypher fragment and 2RPQs,
//     run.sweptPairs): each batch of index pairs goes to the sink straight
//     out of the all-sources fan-out while later sweeps are still running.
//     Memory per query is O(fan-out window), not O(result), and a blocked
//     sink throttles the worker pool (backpressure). A backward plan
//     degrades inside eval — collect, sort, deliver — without the engine
//     noticing.
//   - Render tier (paths, rows, matches, spans, relation, run.rendered):
//     the evaluator materializes its typed result, then hands it over as
//     one batch whose rows are rendered inside the encoder — delivery
//     memory is O(row) plus the sink's buffer, evaluation memory is the
//     evaluator's.
//
// Kind "bag" has one aggregate value and never touches the sink; serving
// layers read it from the Response.
package core

import (
	"context"
	"errors"
	"time"

	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

// Sink receives one query's results incrementally. Begin is called at most
// once, after compilation and planning succeeded and before the first row,
// naming the result kind and (for kinds "rows" and "relation") the column
// header. Row then delivers one result element at a time, rendered to wire
// form: [2]string for "pairs", string for "paths"/"matches"/"spans",
// []string for "rows"/"relation". A sink that also implements BatchSink is
// handed whole batches to encode instead and never sees Row — the path both
// serving sinks take; Row is what a sink written against this interface
// alone still gets (rowAdapter). Either way the engine is the one place
// typed results become wire rows, so every serving format is an encoding
// of the same row stream.
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
// query-global meter, fix the graph snapshot, serve the request's row of
// the table of served kinds, and stamp the response with the meter
// readings and trace artifacts. The returned
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
	var ss *pg.SweepStats
	if req.Analyze {
		ss = &pg.SweepStats{}
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
	x := &run{e: e, gs: gs, req: req, m: m, tr: tr, maxLen: maxLen, limit: limit,
		anchored: req.From != "" || req.To != ""}
	if sink != nil {
		var ok bool
		if x.d.out, ok = sink.(BatchSink); !ok {
			x.d.out = rowAdapter{sink}
		}
	}
	resp, err := x.dispatch()
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
		resp.Analyze = annotate(resp, tr, ss)
	}
	return resp, nil
}

// delivery hands batches to a sink and keeps the clock: time inside the
// sink is encoding — the "enumerate" stage — except what the sink reports
// it waited on its consumer, which is the "stream" stage. Two clock reads
// per batch, never per row.
type delivery struct {
	out          BatchSink
	rows         int // rows the sink took
	encode, wait time.Duration
}

func (d *delivery) send(b RowBatch) error {
	t0 := time.Now()
	n, waited, err := d.out.Batch(b)
	d.rows += n
	d.wait += waited
	d.encode += time.Since(t0) - waited
	return err
}

// record adds the delivery's stages to the trace as accumulated spans; the
// caller excludes the same time from whatever span was open meanwhile. A
// consumer that never blocked leaves no "stream" slice.
func (d *delivery) record(tr *obs.Trace) {
	if d.encode > 0 {
		tr.Add("enumerate", d.encode)
	}
	if d.wait > 0 {
		tr.Add("stream", d.wait)
	}
}
