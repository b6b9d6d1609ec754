// Streaming result delivery: the NDJSON face of core.QueryStream.
//
// A streamed /v1/query (Accept: application/x-ndjson or "stream": true)
// answers 200 with one JSON value per line:
//
//	{"graph":"bank","kind":"pairs"}            header: kind + column names
//	["a1","a7"]                                 rows: bare JSON values —
//	["a1","a9"]                                 arrays or strings, never
//	...                                         objects
//	{"trailer":{"status":"ok","count":…}}       trailer: outcome, counts,
//	                                            next_cursor
//
// The engine hands the streamer batches of rows (core.BatchSink) and the
// streamer has the engine's row encoder append them to its chunk — the same
// bytes the buffered collector appends, with a newline where the body has a
// comma, which is why the two formats' rows are identical. A chunk is one
// segment of the pool the buffered body is built from (segSize), cut by
// bytes: the first at firstChunk, so the first rows leave early, and each
// later one at twice the limit of the one before, up to the whole segment.
// Filled chunks travel to the response writer through a bounded channel of
// Config.StreamBuffer entries, and the writer returns each to the pool after
// its Write, so a slow client throttles evaluation (backpressure) instead of
// letting results pile up — memory per query is at most StreamBuffer+2
// segments, not O(result).
//
// The error taxonomy survives mid-stream: until the first chunk is flushed
// nothing has been written, and failures surface as the ordinary status +
// error envelope; after the first chunk the 200 header is gone, so the
// outcome — ok, budget_exceeded, timeout, killed, canceled, internal — is
// reported as the in-band trailer record instead, with the same code the
// envelope would have carried. Rows encoded but never flushed when an
// error hits are dropped: like the buffered path, an error voids results
// the client does not already have.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/obs"
)

// streamHeader is the first line of a streamed response.
type streamHeader struct {
	Graph string `json:"graph"`
	Kind  string `json:"kind"`
	// Columns is the column header for kinds "rows" and "relation" — the
	// buffered response's "columns" field.
	Columns []string `json:"columns,omitempty"`
}

// streamTrailer is the last line of a streamed response, wrapped under a
// "trailer" key so it cannot be mistaken for a row (rows are never
// objects). Status is "ok" or "error"; Code carries the same
// machine-readable code the error envelope would have used.
type streamTrailer struct {
	Status        string  `json:"status"`
	Code          string  `json:"code,omitempty"`
	Message       string  `json:"message,omitempty"`
	Count         int     `json:"count"`
	StatesVisited int64   `json:"states_visited"`
	RowsProduced  int64   `json:"rows_produced"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	NextCursor    string  `json:"next_cursor,omitempty"`
}

type trailerLine struct {
	Trailer streamTrailer `json:"trailer"`
}

// cursorSpec is a parsed pagination cursor: skip rows already delivered,
// then deliver up to page rows. rev pins the graph revision the offsets
// count against (check is false for the "start" token, which accepts the
// current revision).
type cursorSpec struct {
	active bool
	skip   int
	page   int
	rev    uint64
	check  bool
}

// parseCursor validates a cursor token: "start" opens page one (page size
// = the request's limit), "v<rev>:<offset>" resumes at offset against
// graph revision rev. The second return is "" on success, else the
// invalid_request message.
func parseCursor(token string, limit int) (cursorSpec, string) {
	if token == "start" {
		return cursorSpec{active: true, page: limit}, ""
	}
	bad := "bad cursor " + strconvQuote(token) + `: want "start" or "v<rev>:<offset>"`
	rest, ok := strings.CutPrefix(token, "v")
	colon := strings.IndexByte(rest, ':')
	if !ok || colon < 0 {
		return cursorSpec{}, bad
	}
	rev, err1 := strconv.ParseUint(rest[:colon], 10, 64)
	off, err2 := strconv.Atoi(rest[colon+1:])
	if err1 != nil || err2 != nil || off < 0 {
		return cursorSpec{}, bad
	}
	return cursorSpec{active: true, skip: off, page: limit, rev: rev, check: true}, ""
}

// wantsNDJSON reports whether the request asked for streamed delivery via
// its Accept header.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// firstChunk is the byte limit of a stream's first chunk — about 256 pair
// rows, so the first rows leave as early as a small reply's would.
const firstChunk = 4 << 10

// streamer adapts one HTTP response to core.BatchSink. The evaluation side
// (Begin/Batch, called by the engine, possibly from worker goroutines but
// never concurrently) fills a chunk and hands full chunks to the writer
// goroutine over the bounded channel; the writer owns the
// http.ResponseWriter exclusively from the first chunk on. A chunk belongs
// to whichever side holds it: the evaluation side while filling, the
// writer from the channel send until it returns the segment to the pool.
// finish, called by the handler after evaluation has fully joined, appends
// the trailer and drains the writer.
type streamer struct {
	s     *Server
	w     http.ResponseWriter
	ctx   context.Context
	tr    *obs.Trace
	prog  *obs.Progress
	graph string
	cur   cursorSpec
	skip  int // remaining cursor rows to drop

	began   bool // Begin was called: the query produces a streamable kind
	started bool // first chunk handed to the writer: the 200 is on the wire
	rows    int  // rows delivered past the cursor skip

	buf   []byte // the chunk being filled: a segment
	limit int    // the byte count at which buf is flushed

	ch   chan []byte
	dead chan struct{} // closed by the writer after a failed client write
	done chan struct{} // closed when the writer goroutine exits
	werr error         // the failed write's error; read only after dead/done
}

func (s *Server) newStreamer(w http.ResponseWriter, ctx context.Context, tr *obs.Trace, prog *obs.Progress, graphName string, cur cursorSpec) *streamer {
	limit := firstChunk
	if s.chunkBytes > 0 {
		limit = s.chunkBytes
	}
	return &streamer{
		s: s, w: w, ctx: ctx, tr: tr, prog: prog, graph: graphName,
		cur: cur, skip: cur.skip, limit: limit,
	}
}

func (s *Server) streamBuffer() int {
	if s.cfg.StreamBuffer > 0 {
		return s.cfg.StreamBuffer
	}
	return defaultStreamBuffer
}

// Begin implements core.Sink: the header becomes the first line of the
// first chunk (nothing is written to the client yet).
func (st *streamer) Begin(kind string, columns []string) (err error) {
	st.began = true
	st.buf, err = appendJSON(newSeg(), streamHeader{Graph: st.graph, Kind: kind, Columns: columns})
	return err
}

// window applies the cursor to the next n rows: rows [from, to) of them
// are delivered — the skip drops a prefix, the page bound cuts a suffix —
// and stop reports that the page filled with rows left over.
func (st *streamer) window(n int) (from, to int, stop bool) {
	from = min(st.skip, n)
	st.skip -= from
	to = n
	if st.cur.active && st.cur.page > 0 {
		if room := st.cur.page - st.rows; n-from > room {
			to, stop = from+room, true
		}
	}
	return from, to, stop
}

// Batch implements core.BatchSink: cut the batch to the cursor window,
// then have the engine's encoder append it to the chunk up to the chunk's
// byte limit at a time, flushing each full chunk.
func (st *streamer) Batch(b core.RowBatch) (n int, waited time.Duration, err error) {
	from, to, stop := st.window(b.Len())
	for i := from; i < to; {
		var next int
		st.buf, next = b.AppendJSON(st.buf, i, to, '\n', st.limit)
		w, err := st.took(next - i)
		i = next
		waited += w
		if err != nil {
			return i, waited, err
		}
	}
	if stop {
		return to, waited, core.ErrStopStream
	}
	return b.Len(), waited, nil
}

// Row implements core.Sink for a caller that holds one rendered row; the
// engine itself delivers through Batch.
func (st *streamer) Row(v any) error {
	from, to, stop := st.window(1)
	if stop {
		return core.ErrStopStream
	}
	if from == to {
		return nil
	}
	var err error
	if st.buf, err = appendJSON(st.buf, v); err != nil {
		return err
	}
	_, err = st.took(1)
	return err
}

// took accounts k rows just encoded into the chunk and flushes the chunk
// when it has reached its limit.
func (st *streamer) took(k int) (waited time.Duration, err error) {
	st.rows += k
	st.s.stats.rowsStreamed.Add(int64(k))
	st.prog.AddStreamed(int64(k))
	if len(st.buf) >= st.limit {
		return st.flush()
	}
	return 0, nil
}

// sent reports whether any chunk reached the writer — the point of no
// return: the 200 header is on the wire, and outcomes must be reported
// in-band from here on.
func (st *streamer) sent() bool { return st.started }

// flush hands the filled chunk to the writer goroutine and takes the next
// segment from the pool. The bounded channel is the backpressure edge:
// when the client reads slower than evaluation produces, this send blocks
// and, through the kernel fan-out's emit ordering, parks the evaluation
// workers; waited is how long it blocked (no clock is read when it did
// not). A chunk that could not be sent is dropped, and its segment is
// the one refilled.
func (st *streamer) flush() (waited time.Duration, err error) {
	st.start()
	chunk := st.buf
	st.buf = chunk[:0]
	select {
	case <-st.dead:
		return 0, st.clientGone()
	default:
	}
	select {
	case st.ch <- chunk:
	default:
		t0 := time.Now()
		select {
		case st.ch <- chunk:
		case <-st.dead:
			return time.Since(t0), st.clientGone()
		case <-st.ctx.Done():
			// Deadline, client disconnect, or operator kill while blocked on
			// a full chunk channel: surface the cause so the taxonomy (timeout
			// / canceled / killed) is preserved.
			return time.Since(t0), fmt.Errorf("%w: %w", eval.ErrCanceled, context.Cause(st.ctx))
		}
		waited = time.Since(t0)
	}
	// Taken after the send, so at most StreamBuffer+2 segments exist: one
	// here, StreamBuffer in the channel, one with the writer.
	st.buf = newSeg()
	if st.s.chunkBytes == 0 {
		st.limit = min(2*st.limit, segSize)
	}
	return waited, nil
}

// clientGone maps a failed response write into the cancellation taxonomy:
// the client is not reading anymore, so evaluation stops through the same
// ErrCanceled path as a disconnect detected by the request context.
func (st *streamer) clientGone() error {
	return fmt.Errorf("%w: client write failed: %w", eval.ErrCanceled, st.werr)
}

// start launches the writer goroutine on the first chunk. From here on the
// writer owns the ResponseWriter; the handler goroutine never touches it
// again.
func (st *streamer) start() {
	if st.started {
		return
	}
	st.started = true
	st.ch = make(chan []byte, st.s.streamBuffer())
	st.dead = make(chan struct{})
	st.done = make(chan struct{})
	st.w.Header().Set("Content-Type", "application/x-ndjson")
	go st.write()
}

func (st *streamer) write() {
	defer close(st.done)
	st.w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(st.w)
	failed := false
	for chunk := range st.ch {
		// After a failed write, keep draining so flush never blocks on a
		// dead client.
		if !failed {
			if _, err := st.w.Write(chunk); err != nil {
				st.werr = err
				st.s.stats.writeErrors.Add(1)
				st.s.logger().Warn("stream write failed", "graph", st.graph, "err", err)
				failed = true
				close(st.dead)
			} else {
				// Flush per chunk so the client sees rows as they are
				// produced — the whole point of streaming — rather than at
				// net/http's buffer boundaries.
				_ = rc.Flush()
			}
		}
		freeSeg(chunk)
	}
}

// finish appends the trailer, flushes everything still buffered (on
// success) or the trailer alone (on error), and joins the writer. Called
// exactly once, by the handler, after evaluation returned — so no Batch
// call can race it — and before the query's duration is observed, so the
// drain is inside the wall clock its "stream" stage span breaks down. The
// span carries the streamed-row count; time evaluation spent blocked on
// the chunk channel was reported to the engine batch by batch and is on
// the trace already, under the same stage name.
func (st *streamer) finish(t streamTrailer) {
	sp := st.tr.Start("stream")
	if t.Status != "ok" {
		st.buf = st.buf[:0]
	}
	st.buf, _ = appendJSON(st.buf, trailerLine{Trailer: t})
	st.start()
	st.ch <- st.buf
	st.buf = nil
	close(st.ch)
	<-st.done
	sp.Counts(0, int64(st.rows)).End()
}

// release returns the chunk still being filled to the pool: that of a
// query that failed before its first chunk went out. Every chunk sent is
// the writer's to return.
func (st *streamer) release() { freeSeg(st.buf) }

// nextCursor returns the resume token for the page after this one, or ""
// when paging is off or the page did not fill. The token pins the graph
// revision the offsets count against: evaluation is deterministic, so
// offset resumption is exact on the same snapshot, and a later revision
// rejects the token (409 cursor_stale) instead of silently skewing pages.
func (st *streamer) nextCursor(rev uint64) string {
	if !st.cur.active || st.cur.page <= 0 || st.rows < st.cur.page {
		return ""
	}
	return fmt.Sprintf("v%d:%d", rev, st.cur.skip+st.cur.page)
}
