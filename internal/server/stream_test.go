package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"graphquery/internal/graph"
)

// postStream sends a /v1/query with NDJSON accept and returns the raw
// response for incremental reading. Callers own Body.Close.
func postStream(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ndjson is one fully read streamed response, split into its protocol
// parts: the header object, the raw row lines (byte-exact), and the
// trailer object.
type ndjson struct {
	header  map[string]any
	rows    []string
	trailer map[string]any
}

func readNDJSON(t *testing.T, resp *http.Response) ndjson {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var out ndjson
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		switch {
		case out.header == nil:
			if err := json.Unmarshal([]byte(line), &out.header); err != nil {
				t.Fatalf("bad header line %q: %v", line, err)
			}
		case strings.HasPrefix(line, `{"trailer"`):
			var tl map[string]map[string]any
			if err := json.Unmarshal([]byte(line), &tl); err != nil {
				t.Fatalf("bad trailer line %q: %v", line, err)
			}
			out.trailer = tl["trailer"]
		default:
			if out.trailer != nil {
				t.Fatalf("row after trailer: %q", line)
			}
			out.rows = append(out.rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if out.header == nil || out.trailer == nil {
		t.Fatalf("incomplete stream: header=%v trailer=%v rows=%d", out.header, out.trailer, len(out.rows))
	}
	return out
}

// skewedGraph has many a-edges (a long cycle plus chords) and a single
// b-edge, so the planner runs queries ending in b backward — the plan that
// cannot deliver incrementally and degrades to collect-sort-deliver inside
// eval.
func skewedGraph() *graph.Graph {
	b := graph.NewBuilder()
	const n = 40
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("v%d", i)) }
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	for i := 0; i < n; i++ {
		for j, d := range []int{1, 7, 13} {
			b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", 3*i+j)), "a", id(i), id((i+d)%n), nil)
		}
	}
	b.AddEdge("eb", "b", id(0), id(1), nil)
	return b.MustBuild()
}

// streamCases is one query per response kind the engine produces, plus one
// per way pairs reach the sink: the kernel fan-out (forward, and the
// backward degrade), the Cypher family, and the render-streamed 2RPQ tier.
// Kind "bag" has a single aggregate value and never touches the sink: a
// streamed request for it falls through to the buffered body.
var streamCases = []struct {
	name string
	kind string
	body string
}{
	{"pairs-kernel", "pairs", `{"graph":"bank","query":"Transfer*"}`},
	{"pairs-backward", "pairs", `{"graph":"skewed","query":"a* b","analyze":true}`},
	{"pairs-cypher", "pairs", `{"graph":"bank","lang":"cypher","query":"-[:Transfer]->"}`},
	{"pairs-2rpq", "pairs", `{"graph":"bank","lang":"2rpq","query":"Transfer ~Transfer"}`},
	{"paths", "paths", `{"graph":"figure5-4","query":"a*","from":"s","to":"t","mode":"shortest"}`},
	{"rows", "rows", `{"graph":"bank","query":"q(x,y) :- Transfer(x,y)"}`},
	{"matches", "matches", `{"graph":"bank","lang":"gql","query":"(x)-[:Transfer]->(y)"}`},
	{"spans", "spans", `{"graph":"bank","lang":"spanner","doc":"aabc","query":"x{a*}y{(b|c)*}"}`},
	{"relation", "relation", `{"graph":"bank","lang":"relalg","query":"REACH(Transfer) AS (x, y)"}`},
	{"bag", "bag", `{"graph":"bank","lang":"bag","query":"Transfer Transfer"}`},
}

// bufferedField extracts the result array of a buffered QueryResponse for
// kind, as raw (byte-preserving) JSON elements, plus the columns header.
func bufferedField(t *testing.T, raw []byte, kind string) (rows []json.RawMessage, columns []string) {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	field := map[string]string{
		"pairs": "pairs", "paths": "paths", "rows": "rows",
		"matches": "matches", "spans": "spans", "relation": "rows",
	}[kind]
	if f, ok := m[field]; ok {
		if err := json.Unmarshal(f, &rows); err != nil {
			t.Fatal(err)
		}
	}
	if c, ok := m["columns"]; ok {
		if err := json.Unmarshal(c, &columns); err != nil {
			t.Fatal(err)
		}
	}
	return rows, columns
}

// TestStreamMatchesBuffered is the streamed-vs-buffered cross-validation:
// for every streamable kind, under sequential and parallel plans, the
// concatenated NDJSON rows must be byte-identical to the buffered
// response's result elements, and the trailer count must match.
func TestStreamMatchesBuffered(t *testing.T) {
	plans := []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{Parallelism: 1}},
		{"parallel", Config{}},
	}
	for _, pl := range plans {
		t.Run(pl.name, func(t *testing.T) {
			s, ts := newTestServer(t, pl.cfg, "bank", "figure5-4")
			s.chunkBytes = 32 // a chunk every few rows
			s.Register("skewed", skewedGraph())
			for _, tc := range streamCases {
				t.Run(tc.name, func(t *testing.T) {
					resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(tc.body))
					if err != nil {
						t.Fatal(err)
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("buffered status %d: %s", resp.StatusCode, raw)
					}
					if tc.kind == "bag" {
						// The fall-through: the streamed request gets the
						// buffered body, the same but for its elapsed time.
						sresp := postStream(t, ts, tc.body)
						sraw, _ := io.ReadAll(sresp.Body)
						sresp.Body.Close()
						if ct := sresp.Header.Get("Content-Type"); ct != "application/json" {
							t.Fatalf("Content-Type %q, want application/json (buffered fall-through)", ct)
						}
						elapsed := regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
						if got, want := elapsed.ReplaceAll(sraw, nil), elapsed.ReplaceAll(raw, nil); !bytes.Equal(got, want) {
							t.Fatalf("streamed bag body differs:\nstream:   %s\nbuffered: %s", got, want)
						}
						return
					}
					if tc.name == "pairs-backward" && !bytes.Contains(raw, []byte("dir=backward")) {
						t.Fatalf("the planner no longer runs this query backward: %s", raw)
					}
					wantRows, wantCols := bufferedField(t, raw, tc.kind)
					if len(wantRows) == 0 {
						t.Fatal("buffered result is empty: the case proves nothing")
					}

					got := readNDJSON(t, postStream(t, ts, tc.body))
					if got.header["kind"] != tc.kind {
						t.Fatalf("header %v, want kind %q", got.header, tc.kind)
					}
					if len(got.rows) != len(wantRows) {
						t.Fatalf("streamed %d rows, buffered %d", len(got.rows), len(wantRows))
					}
					for i := range got.rows {
						if got.rows[i] != string(wantRows[i]) {
							t.Fatalf("row %d differs:\nstream:   %s\nbuffered: %s", i, got.rows[i], wantRows[i])
						}
					}
					if int(got.trailer["count"].(float64)) != len(wantRows) {
						t.Fatalf("trailer count %v, want %d", got.trailer["count"], len(wantRows))
					}
					if got.trailer["status"] != "ok" {
						t.Fatalf("trailer %v", got.trailer)
					}
					var gotCols []string
					if c, ok := got.header["columns"].([]any); ok {
						for _, v := range c {
							gotCols = append(gotCols, v.(string))
						}
					}
					if fmt.Sprint(gotCols) != fmt.Sprint(wantCols) {
						t.Fatalf("columns %v, want %v", gotCols, wantCols)
					}
				})
			}
		})
	}
}

// TestStreamBagDegradesToBuffered: kind "bag" never touches the sink, so a
// streamed request degrades cleanly to the ordinary buffered JSON body.
func TestStreamBagDegradesToBuffered(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	resp := postStream(t, ts, `{"graph":"bank","lang":"bag","query":"Transfer Transfer"}`)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json (buffered degrade)", ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "bag" || m["value"] == "" {
		t.Fatalf("bag response: %v", m)
	}
}

// TestStreamCursorPagination walks a paged stream to exhaustion and checks
// the pages concatenate to exactly the unpaged stream, then pins the
// cursor error taxonomy: cursor without streaming (400), malformed token
// (400), revision mismatch (409 cursor_stale).
func TestStreamCursorPagination(t *testing.T) {
	s, ts := newTestServer(t, Config{}, "bank")
	s.chunkBytes = 24 // a chunk every two rows

	full := readNDJSON(t, postStream(t, ts, `{"graph":"bank","query":"Transfer*"}`))
	if len(full.rows) < 4 {
		t.Fatalf("need a multi-page result, got %d rows", len(full.rows))
	}

	var paged []string
	cursor := "start"
	for pages := 0; cursor != ""; pages++ {
		if pages > len(full.rows) {
			t.Fatal("cursor never terminated")
		}
		body := fmt.Sprintf(`{"graph":"bank","query":"Transfer*","limit":3,"cursor":%q}`, cursor)
		page := readNDJSON(t, postStream(t, ts, body))
		if page.trailer["status"] != "ok" {
			t.Fatalf("page trailer %v", page.trailer)
		}
		if len(page.rows) > 3 {
			t.Fatalf("page has %d rows, limit 3", len(page.rows))
		}
		paged = append(paged, page.rows...)
		cursor, _ = page.trailer["next_cursor"].(string)
		if cursor != "" && len(page.rows) != 3 {
			t.Fatalf("next_cursor on a short page (%d rows)", len(page.rows))
		}
	}
	if len(paged) != len(full.rows) {
		t.Fatalf("pages yielded %d rows, unpaged stream %d", len(paged), len(full.rows))
	}
	for i := range paged {
		if paged[i] != full.rows[i] {
			t.Fatalf("paged row %d differs: %s vs %s", i, paged[i], full.rows[i])
		}
	}

	status, m := post(t, ts, `{"graph":"bank","query":"Transfer*","cursor":"start"}`)
	if status != http.StatusBadRequest || errorCode(t, m) != "invalid_request" {
		t.Fatalf("cursor without stream: %d %v", status, m)
	}
	status, m = post(t, ts, `{"graph":"bank","query":"Transfer*","stream":true,"cursor":"bogus"}`)
	if status != http.StatusBadRequest || errorCode(t, m) != "invalid_request" {
		t.Fatalf("bad cursor: %d %v", status, m)
	}
	status, m = post(t, ts, `{"graph":"bank","query":"Transfer*","stream":true,"cursor":"v999:3"}`)
	if status != http.StatusConflict || errorCode(t, m) != "cursor_stale" {
		t.Fatalf("stale cursor: %d %v", status, m)
	}
}

// TestStreamBudgetTrailer: a row budget that trips after rows have already
// been flushed cannot use the error envelope anymore — the exact
// budget_exceeded outcome must arrive as the in-band error trailer, after
// the rows that fit the budget.
func TestStreamBudgetTrailer(t *testing.T) {
	s, ts := newTestServer(t, Config{Parallelism: 1}, "path-100")
	s.chunkBytes = 1 // every row is a chunk of its own
	// Sequential sweep over path-100 (101 nodes): source v0 yields 101
	// rows, v1 yields 100 — a 250-row budget delivers both (201 rows, each
	// flushed immediately as a chunk of its own) and trips inside v2's
	// sweep, whose rows are voided.
	resp := postStream(t, ts, `{"graph":"path-100","query":"a*","max_rows":250}`)
	got := readNDJSON(t, resp)
	if got.trailer["status"] != "error" || got.trailer["code"] != "budget_exceeded" {
		t.Fatalf("trailer %v, want budget_exceeded error", got.trailer)
	}
	if len(got.rows) != 201 {
		t.Fatalf("delivered %d rows before the trip, want 201", len(got.rows))
	}
	if msg, _ := got.trailer["message"].(string); !strings.Contains(msg, "budget") {
		t.Fatalf("trailer message %q", msg)
	}
	if st := s.Stats(); st.BudgetExceeded != 1 || st.RowsStreamed != 201 {
		t.Fatalf("stats: budget_exceeded=%d rows_streamed=%d", st.BudgetExceeded, st.RowsStreamed)
	}
}

// unbufferable names a streamed reply no socket can swallow: `a*` on a
// 3 000-node cycle is 9 M pairs, some 150 MB of NDJSON, against the few
// megabytes a loopback connection buffers on both ends together. A client
// that stops reading therefore leaves the query parked mid-stream behind
// backpressure, whatever the speed of the sweep — clique-300's 1.6 MB reply
// used to stand in for this and stopped doing so once the daemon could
// produce all of it in under 50 ms: one run in twenty the query had
// finished before the kill or the abort arrived.
const (
	unbufferable      = "cycle-3000"
	unbufferableQuery = `{"graph":"cycle-3000","query":"a*"}`
)

// TestStreamKillTrailer: an operator kill (POST /v1/queries/{id}/cancel)
// landing mid-stream surfaces as a well-formed "killed" error trailer on
// the already-open 200 response.
func TestStreamKillTrailer(t *testing.T) {
	s, ts := newTestServer(t, Config{StreamBuffer: 1}, unbufferable)
	s.chunkBytes = 1 << 10
	resp := postStream(t, ts, unbufferableQuery)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Query-ID")
	if id == "" {
		t.Fatal("no X-Query-ID on streamed response")
	}
	// Read just the header line: the first chunk is on the wire, the rest
	// of the result is parked behind backpressure.
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cresp, err := http.Post(ts.URL+"/v1/queries/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}
	// Drain the remainder; the stream must end with a killed error trailer.
	var last string
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sc.Text() != "" {
			last = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var tl map[string]map[string]any
	if err := json.Unmarshal([]byte(last), &tl); err != nil {
		t.Fatalf("last line %q is not a trailer: %v", last, err)
	}
	tr := tl["trailer"]
	if tr["status"] != "error" || tr["code"] != "killed" {
		t.Fatalf("trailer %v, want killed", tr)
	}
}

// TestStreamClientAbort: a client closing its connection mid-stream must
// cancel evaluation (accounted as canceled) and count a write error, never
// wedge the handler.
func TestStreamClientAbort(t *testing.T) {
	s, ts := newTestServer(t, Config{StreamBuffer: 1}, unbufferable)
	s.chunkBytes = 256
	resp := postStream(t, ts, unbufferableQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Read one line to be sure the stream is live, then slam the door.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Canceled >= 1 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abort not accounted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeRecorder is an http.ResponseWriter that keeps the body and the size
// of every Write.
type writeRecorder struct {
	h      http.Header
	writes []int
	body   bytes.Buffer
}

func (r *writeRecorder) Header() http.Header { return r.h }
func (r *writeRecorder) WriteHeader(int)     {}
func (r *writeRecorder) Flush()              {}
func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.body.Write(p)
}

// TestStreamChunksCutByBytes: with the defaults, a streamed reply leaves in
// chunks of one Write each, cut by bytes — the first at firstChunk, each
// later one at twice the limit of the one before, up to segSize. A chunk
// ends at most one row past its limit, and only the last, which carries
// the trailer, ends short of it.
func TestStreamChunksCutByBytes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if err := s.LoadNamed("path-700"); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"graph":"path-700","query":"a*"}`))
	req.Header.Set("Accept", "application/x-ndjson")
	w := &writeRecorder{h: http.Header{}}
	s.Handler().ServeHTTP(w, req)

	lines := bytes.SplitAfter(w.body.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty split after the trailer's newline
	// 701 nodes, each reaching itself and every node after it.
	if n := len(lines) - 2; n != 701*702/2 {
		t.Fatalf("%d rows, want %d", n, 701*702/2)
	}
	row := 0
	for _, line := range lines[1 : len(lines)-1] {
		row = max(row, len(line))
	}
	last := len(w.writes) - 1
	w.writes[last] -= len(lines[len(lines)-1]) // the trailer is not a row
	limit := firstChunk
	for i, n := range w.writes {
		if n >= limit+row || i < last && n < limit {
			t.Fatalf("chunk %d of %d holds %d bytes of rows at limit %d; rows are up to %d bytes (chunks: %v)",
				i, len(w.writes), n, limit, row, w.writes)
		}
		limit = min(2*limit, segSize)
	}
	if len(w.writes) < 10 {
		t.Fatalf("%d chunks: %v", len(w.writes), w.writes)
	}
}

// TestStreamObservability: streamed rows surface in /v1/statz, /metrics,
// and the per-stage histograms gain the "stream" stage.
func TestStreamObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{}, "bank")
	got := readNDJSON(t, postStream(t, ts, `{"graph":"bank","query":"Transfer*"}`))
	n := int64(len(got.rows))
	if n == 0 {
		t.Fatal("no rows")
	}
	if st := s.Stats(); st.RowsStreamed != n {
		t.Fatalf("rows_streamed %d, want %d", st.RowsStreamed, n)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(raw)
	if !strings.Contains(text, fmt.Sprintf("gq_rows_streamed_total %d", n)) {
		t.Fatalf("metrics missing gq_rows_streamed_total %d", n)
	}
	if !strings.Contains(text, `gq_stage_duration_seconds_count{stage="stream"} 1`) {
		t.Fatal("metrics missing stream stage sample")
	}
	if !strings.Contains(text, "gq_write_errors_total 0") {
		t.Fatal("metrics missing gq_write_errors_total")
	}
}

// TestDurationIncludesQueueWait is the latency-accounting regression test:
// gq_query_duration_seconds is documented as wall-clock including queue
// wait, so a query parked in the admission queue must observe its wait.
func TestDurationIncludesQueueWait(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 4}, "bank")

	// Occupy the only slot directly, park one query in the wait queue for
	// ~150ms, then let it through.
	s.sem <- struct{}{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, m := post(t, ts, `{"graph":"bank","query":"Transfer"}`)
		if status != http.StatusOK {
			t.Errorf("queued query: %d %v", status, m)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	s.release()
	wg.Wait()

	if sum := s.latency.Sum(); sum < 0.15 {
		t.Fatalf("duration histogram sum %.4fs, want >= 0.15s (queue wait dropped)", sum)
	}
	if c := s.latency.Count(); c != 1 {
		t.Fatalf("duration histogram count %d, want 1", c)
	}
}

// failWriter is an http.ResponseWriter whose body writes always fail.
type failWriter struct{ h http.Header }

func (f *failWriter) Header() http.Header {
	if f.h == nil {
		f.h = make(http.Header)
	}
	return f.h
}
func (f *failWriter) WriteHeader(int)           {}
func (f *failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// TestWriteJSONCountsErrors is the buffered write-failure regression test:
// an encode/write failure must be counted in write_errors, not dropped.
func TestWriteJSONCountsErrors(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	s.writeJSON(&failWriter{}, http.StatusOK, map[string]string{"a": "b"})
	if got := s.Stats().WriteErrors; got != 1 {
		t.Fatalf("write_errors %d, want 1", got)
	}
	if !strings.Contains(buf.String(), "response write failed") {
		t.Fatalf("write failure not logged: %q", buf.String())
	}
}
