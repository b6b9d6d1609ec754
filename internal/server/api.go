// The HTTP JSON surface of the query service.
//
//	POST /v1/query                  evaluate one query against a named graph
//	GET  /v1/graphs                 list registered graphs
//	GET  /v1/healthz                liveness
//	GET  /v1/statz                  counters + per-graph plan-cache stats
//	GET  /v1/queries                in-flight queries with live progress
//	GET  /v1/queries/recent         recently completed queries (ring buffer)
//	POST /v1/queries/{id}/cancel    cooperatively kill one in-flight query
//
// The live-store write surface (POST /v1/graphs, mutate, delete, export)
// is documented in store_api.go.
//
// Every /v1/query reply from an admitted query — success or error — carries
// an X-Query-ID header naming the query's registry ID, the handle for the
// introspection endpoints and the query event log.
//
// POST /v1/query also speaks chunked NDJSON: with Accept:
// application/x-ndjson (or "stream": true in the body) results stream to
// the client as they are produced — header line, one row per line, trailer
// line — with backpressure and cursor-style pagination. See stream.go.
//
// Errors use one envelope, {"error":{"code":..., "message":...}}, with
// machine-readable codes: invalid_request and invalid_query (400),
// unknown_graph and unknown_query (404), cursor_stale (409),
// too_large (413), overloaded (429), budget_exceeded (422), timeout (504),
// canceled and killed (499), internal (500). A streamed query that already
// sent its first chunk reports failures in-band instead, as an error
// trailer carrying the same code.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
)

// maxRequestBytes bounds the request body a client may send.
const maxRequestBytes = 1 << 20

// statusClientClosedRequest is the de-facto code (nginx) for "the client
// canceled before the response was produced"; net/http has no constant.
const statusClientClosedRequest = 499

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Graph string `json:"graph"`
	Query string `json:"query"`
	// Lang: "" or "auto" detects among the classic kinds; explicit values
	// force a tier: "2rpq" (pairs), "gql" and "coregql" (matches), "cypher"
	// (pairs), "pmr" (paths; needs from/to and a limit), "spanner" (spans
	// over doc), "relalg" (relation), "bag" (bag count).
	Lang string `json:"lang,omitempty"`
	// Doc is the input document for spanner queries.
	Doc string `json:"doc,omitempty"`
	// From/To anchor path queries; Mode picks their path semantics
	// (all, shortest, simple, trail — default all).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	Mode string `json:"mode,omitempty"`
	// MaxLen / Limit override the engine's enumeration bounds when > 0.
	MaxLen int `json:"max_len,omitempty"`
	Limit  int `json:"limit,omitempty"`
	// TimeoutMS overrides the server's default deadline (clamped to its
	// maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxStates / MaxRows override the server's default budget when > 0.
	MaxStates int64 `json:"max_states,omitempty"`
	MaxRows   int64 `json:"max_rows,omitempty"`
	// Analyze turns on EXPLAIN ANALYZE mode: the response's "analyze" field
	// carries the annotated plan tree — per-node planner estimate vs
	// measured actual with q-errors — plus the kernel's per-level sweep
	// telemetry.
	Analyze bool `json:"analyze,omitempty"`
	// Stream requests chunked NDJSON delivery — equivalent to sending
	// Accept: application/x-ndjson.
	Stream bool `json:"stream,omitempty"`
	// Cursor pages a streamed result: "start" opens page one (page size =
	// limit) and each full page's trailer carries the next_cursor token for
	// the page after it. Requires streaming.
	Cursor string `json:"cursor,omitempty"`
}

// QueryResponse is the POST /v1/query success body. Exactly one result
// field group is populated, per Kind: Pairs ("pairs"), Paths ("paths"),
// Columns+Rows ("rows" and "relation"), Matches ("matches"), Spans
// ("spans"), Value ("bag").
type QueryResponse struct {
	Graph   string      `json:"graph"`
	Kind    string      `json:"kind"`
	Pairs   [][2]string `json:"pairs,omitempty"`
	Paths   []string    `json:"paths,omitempty"`
	Columns []string    `json:"columns,omitempty"`
	Rows    [][]string  `json:"rows,omitempty"`
	Matches []string    `json:"matches,omitempty"`
	Spans   []string    `json:"spans,omitempty"`
	Value   string      `json:"value,omitempty"`
	Count   int         `json:"count"`

	StatesVisited int64   `json:"states_visited"`
	RowsProduced  int64   `json:"rows_produced"`
	ElapsedMS     float64 `json:"elapsed_ms"`

	// Analyze is the annotated plan tree, present only when the request set
	// "analyze": true.
	Analyze *core.AnnotatedPlan `json:"analyze,omitempty"`
}

// GraphInfo is one entry of GET /v1/graphs.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleGraphLoad)
	mux.HandleFunc("POST /v1/graphs/{name}/mutate", s.handleGraphMutate)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleGraphDelete)
	mux.HandleFunc("GET /v1/graphs/{name}/export", s.handleGraphExport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	mux.HandleFunc("GET /v1/queries", s.handleQueries)
	mux.HandleFunc("GET /v1/queries/recent", s.handleQueriesRecent)
	mux.HandleFunc("POST /v1/queries/{id}/cancel", s.handleQueryCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// appendJSON appends v's encoding and a newline to dst: what a
// json.Encoder with the service's one setting (no HTML escaping) writes.
// It serves the once-per-reply values — envelopes, the stream header and
// trailer, the head and tail of a query body; result rows go through the
// engine's row encoder (core.RowBatch.AppendJSON), which writes the same
// bytes without reflection.
func appendJSON(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// writeJSON writes one buffered JSON body; see writeBody.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := appendJSON(nil, v)
	if err != nil {
		s.stats.writeErrors.Add(1)
		s.logger().Warn("response encode failed", "status", status, "err", err)
		body = nil
	}
	s.writeBody(w, status, body)
}

// writeBody writes one buffered body, given as the segments it was built
// in, under a Content-Length: one Write per segment, in order. Once the
// status header is out a connection failure cannot change the outcome
// anymore — but it is not silently dropped either: it is logged and counted
// in the write_errors stat, so truncated responses are visible to
// operators. (Streamed responses have the stronger in-band trailer
// protocol; this closes the buffered path.)
func (s *Server) writeBody(w http.ResponseWriter, status int, body ...[]byte) {
	n := 0
	for _, seg := range body {
		n += len(seg)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, seg := range body {
		if _, err := w.Write(seg); err != nil {
			s.stats.writeErrors.Add(1)
			s.logger().Warn("response write failed", "status", status, "err", err)
			return
		}
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string) {
	s.writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: message}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	infos := []GraphInfo{}
	for _, name := range s.GraphNames() {
		g := s.Engine(name).Graph()
		infos = append(infos, GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()})
	}
	s.writeJSON(w, http.StatusOK, map[string][]GraphInfo{"graphs": infos})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Arrival is stamped before admission so the duration histogram keeps
	// its documented meaning — wall clock of the whole admitted query, queue
	// wait included. (The registry entry's Started is stamped at admission
	// and keeps measuring evaluation alone.)
	arrived := time.Now()
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		s.stats.errors.Add(1)
		// An over-limit body is the client sending too much, not malformed
		// JSON: report it as 413 too_large, matching the store load path.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, "invalid_request", "bad request body: "+err.Error())
		return
	}
	if req.Query == "" {
		s.stats.errors.Add(1)
		s.writeError(w, http.StatusBadRequest, "invalid_request", "missing query")
		return
	}
	eng := s.Engine(req.Graph)
	if eng == nil {
		s.stats.errors.Add(1)
		s.writeError(w, http.StatusNotFound, "unknown_graph", "unknown graph "+strconvQuote(req.Graph))
		return
	}
	mode := eval.All
	if req.Mode != "" {
		var err error
		if mode, err = eval.ParseMode(req.Mode); err != nil {
			s.stats.errors.Add(1)
			s.writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
			return
		}
	}
	stream := req.Stream || wantsNDJSON(r)
	var cur cursorSpec
	if req.Cursor != "" {
		if !stream {
			s.stats.errors.Add(1)
			s.writeError(w, http.StatusBadRequest, "invalid_request",
				`cursor requires streaming ("stream": true or Accept: application/x-ndjson)`)
			return
		}
		var perr string
		if cur, perr = parseCursor(req.Cursor, req.Limit); perr != "" {
			s.stats.errors.Add(1)
			s.writeError(w, http.StatusBadRequest, "invalid_request", perr)
			return
		}
		if cur.check && cur.rev != eng.GraphRev() {
			s.stats.errors.Add(1)
			s.writeError(w, http.StatusConflict, "cursor_stale", fmt.Sprintf(
				"cursor is for graph revision %d, current is %d; restart from cursor \"start\"",
				cur.rev, eng.GraphRev()))
			return
		}
	}
	limit := req.Limit
	if cur.active {
		// The engine enumerates up to the end of the requested page; the
		// sink drops the skipped prefix and stops at the page bound.
		if cur.page > 0 {
			limit = cur.skip + cur.page
		} else {
			limit = 0
		}
	}

	// Admission: claim a concurrency slot or wait in the bounded queue.
	if err := s.acquire(r.Context()); err != nil {
		if errors.Is(err, errOverloaded) {
			s.stats.rejected.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "overloaded",
				"all query slots busy and the wait queue is full; retry later")
			return
		}
		// The client is gone: account the abort, write nothing. See the
		// same guard on the post-evaluation path below.
		s.stats.canceled.Add(1)
		return
	}
	defer s.release()
	s.stats.accepted.Add(1)
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)

	// Register the admitted query: a fresh ID, a live Progress the kernel
	// feeds through the meter tick, and a cancel hook an operator kill
	// (POST /v1/queries/{id}/cancel) fires with obs.ErrKilled as the cause.
	qctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	act := s.registry.Admit(req.Graph, req.Query, req.Lang, cancel)
	w.Header().Set("X-Query-ID", strconv.FormatUint(act.ID, 10))

	tr := obs.NewTrace()
	creq := core.Request{
		Query:    req.Query,
		Lang:     req.Lang,
		Doc:      req.Doc,
		From:     graph.NodeID(req.From),
		To:       graph.NodeID(req.To),
		Mode:     mode,
		MaxLen:   req.MaxLen,
		Limit:    limit,
		Budget:   eval.Budget{MaxStates: req.MaxStates, MaxRows: req.MaxRows},
		Trace:    tr,
		Progress: act.Progress,
		Analyze:  req.Analyze,
	}
	timeout := s.timeoutFor(time.Duration(req.TimeoutMS) * time.Millisecond)
	// One engine call for both wire formats: the sink is the NDJSON
	// streamer, or the collector that appends rows into the buffered body.
	var st *streamer
	body := &collector{graph: req.Graph}
	defer body.release()
	var sink core.Sink = body
	if stream {
		st = s.newStreamer(w, qctx, tr, act.Progress, req.Graph, cur)
		defer st.release()
		sink = st
	}
	resp, err := s.evaluate(qctx, eng, creq, timeout, sink)
	elapsed := time.Since(act.Started)
	if resp != nil && resp.Analyze != nil && resp.Analyze.Plan.QError > 0 {
		s.qerror.Observe(resp.Analyze.Plan.QError)
	}

	outcome := "ok"
	status := http.StatusOK
	if err != nil {
		var code string
		status, code = classifyHTTP(err)
		if code == "canceled" && errors.Is(err, obs.ErrKilled) {
			// Operator kill: same ErrCanceled taxonomy and 499 class as a
			// client abort, but reported distinctly everywhere.
			code = "killed"
		}
		outcome = code
	}
	switch outcome {
	case "ok":
		s.stats.completed.Add(1)
		s.stats.countKind(resp.Kind)
	case "timeout":
		s.stats.timeouts.Add(1)
	case "canceled":
		s.stats.canceled.Add(1)
	case "killed":
		s.stats.killed.Add(1)
	case "budget_exceeded":
		s.stats.budgetExceeded.Add(1)
	default:
		s.stats.errors.Add(1)
		// A recovered panic is the engine's bug: the client gets the bare
		// message, the operator the stack.
		var panicked *pg.PanicError
		if errors.As(err, &panicked) {
			s.logger().Error("query panicked", "id", act.ID, "graph", req.Graph,
				"query", req.Query, "panic", panicked.Value, "stack", string(panicked.Stack))
		}
	}

	// Streamed delivery: a successful streamed query (the sink was opened)
	// finishes with an ok trailer; one that failed after its first chunk
	// went out can no longer use the error envelope — the 200 is on the
	// wire — so the same outcome code goes into an error trailer in-band.
	// Both paths flush, join the writer, and record the "stream" span —
	// before the query duration is observed, so every stage span lies
	// inside the wall clock it breaks down and the stage histograms cannot
	// sum past the duration histogram.
	delivered := false
	if st != nil {
		if err == nil && st.began {
			var rev uint64
			if resp != nil {
				rev = resp.GraphRev
			}
			st.finish(streamTrailer{
				Status:        "ok",
				Count:         st.rows,
				StatesVisited: resp.StatesVisited,
				RowsProduced:  resp.RowsProduced,
				ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
				NextCursor:    st.nextCursor(rev),
			})
			delivered = true
		} else if err != nil && st.sent() {
			spans := tr.Spans()
			st.finish(streamTrailer{
				Status:        "error",
				Code:          outcome,
				Message:       err.Error(),
				Count:         st.rows,
				StatesVisited: obs.TotalStates(spans),
				RowsProduced:  obs.TotalRows(spans),
				ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
			})
			delivered = true
		}
	}
	s.latency.Observe(time.Since(arrived).Seconds())
	s.observeStages(tr.Spans())

	// One completion record feeds the recent-queries ring, the query event
	// log, and (over threshold) the slow-query WARN.
	rec := buildRecord(act, outcome, err, elapsed, tr, resp)
	s.registry.Finish(act, rec)
	s.logQuery(rec, elapsed)

	if delivered {
		return
	}
	if err != nil {
		if outcome == "canceled" && r.Context().Err() != nil {
			// The cancellation came from the client side: its connection is
			// closed (or closing), so any WriteHeader/Write here lands on a
			// dead connection — at best discarded, at worst logged by
			// net/http as a superfluous WriteHeader after a failed body
			// write. The 499 is accounting-only; write nothing. (An operator
			// kill does not take this path: the client is still connected
			// and receives the "killed" envelope. A streamed query past its
			// first chunk does not either: its outcome went out above as the
			// in-band trailer.)
			return
		}
		s.writeError(w, status, outcome, err.Error())
		return
	}
	// The rows are in the collector; a streamed request whose evaluation
	// never touched the sink (kind "bag" has one aggregate value) takes the
	// same buffered body, with no rows in it.
	out, err := body.finish(resp, elapsed)
	if err != nil {
		s.stats.writeErrors.Add(1)
		s.logger().Warn("response encode failed", "status", http.StatusOK, "err", err)
	}
	s.writeBody(w, http.StatusOK, out...)
}

// Reply bodies, buffered and streamed, are built in segments: fixed-size
// buffers from one pool, each filled to segSize bytes and written whole. A
// grown buffer would cost, per reply, allocating, zeroing and copying a
// multiple of the body's size; a segment is filled once and goes back to the
// pool after its Write. The row encoder stops one row past the limit it is
// given (core.RowBatch.AppendJSON), so a segment carries segSlack bytes of
// room past segSize for that row: filling a segment never regrows it. A
// row longer than the slack does, and the regrown buffer is not pooled.
// The encoder stores pair rows in 16-byte words that may run past the last
// row into the segment's spare capacity; a segment belongs to one sink
// until it is written, so nothing else reads those bytes.
const (
	segSize  = 64 << 10
	segSlack = 4 << 10
	segCap   = segSize + segSlack
)

var segPool = sync.Pool{New: func() any { return new([segCap]byte) }}

// newSeg takes an empty segment from the pool.
func newSeg() []byte { return segPool.Get().(*[segCap]byte)[:0] }

// freeSeg returns a segment to the pool once nothing reads it any more; a
// nil or regrown buffer is left to the garbage collector.
func freeSeg(b []byte) {
	if cap(b) == segCap {
		segPool.Put((*[segCap]byte)(b[:segCap]))
	}
}

// collector is the buffered face of core.BatchSink: it builds the
// QueryResponse body in place, in segments. Begin writes the body's head
// and opens the row array of the kind's field, Batch has the engine's row
// encoder append rows to it — the bytes the NDJSON streamer gets, with a
// comma where a line ends — and finish closes the array and appends the
// tail. Head and tail come from encoding/json over the two structs below,
// which are QueryResponse minus its row fields, so the body is byte for byte
// what encoding the whole QueryResponse gives without ever holding the rows
// as Go values.
type collector struct {
	graph string
	segs  [][]byte // filled segments, in order
	buf   []byte   // the segment being filled; nil before Begin
	open  int      // len(buf) before the row array was opened: an empty result cuts back to here
	n     int      // rows appended
}

// bodyHead is what a QueryResponse encodes before its row field.
type bodyHead struct {
	Graph   string   `json:"graph"`
	Kind    string   `json:"kind"`
	Columns []string `json:"columns,omitempty"`
}

// bodyTail is what a QueryResponse encodes after its row field.
type bodyTail struct {
	Value         string              `json:"value,omitempty"`
	Count         int                 `json:"count"`
	StatesVisited int64               `json:"states_visited"`
	RowsProduced  int64               `json:"rows_produced"`
	ElapsedMS     float64             `json:"elapsed_ms"`
	Analyze       *core.AnnotatedPlan `json:"analyze,omitempty"`
}

func (c *collector) Begin(kind string, columns []string) error {
	head, err := appendJSON(newSeg(), bodyHead{Graph: c.graph, Kind: kind, Columns: columns})
	if err != nil {
		return err
	}
	c.buf = head[:len(head)-len("}\n")]
	c.open = len(c.buf)
	field := kind // the row field is named after the kind, except:
	if kind == "relation" {
		field = "rows"
	}
	c.buf = append(append(append(c.buf, `,"`...), field...), `":[`...)
	return nil
}

func (c *collector) Batch(b core.RowBatch) (int, time.Duration, error) {
	for i := 0; i < b.Len(); {
		c.buf, i = b.AppendJSON(c.buf, i, b.Len(), ',', segSize)
		c.cut()
	}
	c.n += b.Len()
	return b.Len(), 0, nil
}

// Row implements core.Sink for a caller that holds one rendered row; the
// engine itself delivers through Batch.
func (c *collector) Row(v any) error {
	row, err := appendJSON(c.buf, v)
	if err != nil {
		return err
	}
	row[len(row)-1] = ','
	c.buf = row
	c.n++
	c.cut()
	return nil
}

// cut moves on to a fresh segment once the one being filled is full.
func (c *collector) cut() {
	if len(c.buf) >= segSize {
		c.segs = append(c.segs, c.buf)
		c.buf = newSeg()
	}
}

// finish completes the body for a successful query and returns its
// segments; they stay the collector's until release.
func (c *collector) finish(resp *core.Response, elapsed time.Duration) ([][]byte, error) {
	if c.buf == nil {
		if err := c.Begin(resp.Kind, nil); err != nil {
			return nil, err
		}
	}
	switch {
	case c.n == 0:
		c.buf = c.buf[:c.open] // omitempty
	case len(c.buf) > 0:
		c.buf[len(c.buf)-1] = ']'
	default: // the last row's comma ends the segment before
		last := c.segs[len(c.segs)-1]
		last[len(last)-1] = ']'
	}
	tail := bodyTail{
		Count:         resp.Count(),
		StatesVisited: resp.StatesVisited,
		RowsProduced:  resp.RowsProduced,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
		Analyze:       resp.Analyze,
	}
	if resp.Bag != nil {
		tail.Value = resp.Bag.String()
	}
	at := len(c.buf)
	out, err := appendJSON(c.buf, tail)
	if err != nil {
		return nil, err
	}
	out[at] = ',' // the tail's own '{'
	c.segs, c.buf = append(c.segs, out), nil
	return c.segs, nil
}

// release returns the body's segments to the pool.
func (c *collector) release() {
	for _, seg := range c.segs {
		freeSeg(seg)
	}
	freeSeg(c.buf)
}

// classifyHTTP maps the engine/eval error taxonomy to an HTTP status and
// error code.
func classifyHTTP(err error) (int, string) {
	switch {
	case errors.Is(err, eval.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity, "budget_exceeded"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, eval.ErrCanceled), errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "canceled"
	case errors.Is(err, core.ErrBadQuery), errors.Is(err, core.ErrUnknownNode):
		return http.StatusBadRequest, "invalid_query"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func strconvQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
