package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"graphquery/internal/gen"
)

// scrapeMetrics parses a Prometheus text exposition into sample name →
// value ("gq_graph_nodes{graph=\"bank\"}" keyed with its label set).
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsMatchesStatz runs a scripted batch covering every outcome
// class, then requires the /metrics counters to agree exactly with the
// /v1/statz snapshot — the acceptance criterion that the two views of the
// server cannot drift.
func TestMetricsMatchesStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank", "figure5-4", "cycle-520")

	post(t, ts, `{"graph":"cycle-520","query":"a*"}`)                          // 200, nine batches: condensed after the first
	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)                        // 200
	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)                        // 200, plan-cache hit
	post(t, ts, `{"graph":"bank","query":"((("}`)                              // 400 invalid_query
	post(t, ts, `{"graph":"nope","query":"a"}`)                                // 404 unknown_graph
	post(t, ts, `{"graph":"bank","query":"Transfer*","max_states":1}`)         // 422 budget_exceeded
	post(t, ts, `{"graph":"figure5-4","query":"a*","from":"s","to":"t"}`)      // 200 paths
	post(t, ts, `{"graph":"bank","query":"~Transfer Transfer","lang":"2rpq"}`) // 200 2rpq

	var statz ServerStats
	resp, err := http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	metrics := scrapeMetrics(t, ts)

	// Sanity: the batch produced the outcomes it scripted.
	if statz.Completed != 5 || statz.Errors != 2 || statz.BudgetExceeded != 1 ||
		statz.Graphs["cycle-520"].Runtime.CondensationsBuilt != 1 || statz.Graphs["bank"].Runtime.CondensationsBuilt != 0 {
		t.Fatalf("unexpected batch outcome: %+v", statz)
	}

	serverPairs := map[string]int64{
		"gq_accepted_total":        statz.Accepted,
		"gq_completed_total":       statz.Completed,
		"gq_canceled_total":        statz.Canceled,
		"gq_timeouts_total":        statz.Timeouts,
		"gq_budget_exceeded_total": statz.BudgetExceeded,
		"gq_rejected_total":        statz.Rejected,
		"gq_errors_total":          statz.Errors,
		"gq_in_flight":             statz.InFlight,
		"gq_queued":                statz.Queued,
		"gq_states_visited_total":  statz.StatesVisited,
		"gq_rows_returned_total":   statz.RowsReturned,
	}
	for name, want := range serverPairs {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("metric %s missing from /metrics", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %v, statz says %d", name, got, want)
		}
	}
	for name, gs := range statz.Graphs {
		graphPairs := map[string]int64{
			"gq_graph_nodes":                   int64(gs.Nodes),
			"gq_graph_edges":                   int64(gs.Edges),
			"gq_plan_cache_hits_total":         gs.Cache.Hits,
			"gq_plan_cache_misses_total":       gs.Cache.Misses,
			"gq_plan_cache_size":               int64(gs.Cache.Size),
			"gq_runtime_states_expanded_total": gs.Runtime.StatesExpanded,
			"gq_runtime_edges_scanned_total":   gs.Runtime.EdgesScanned,

			"gq_runtime_condensations_built_total": gs.Runtime.CondensationsBuilt,
		}
		for fam, want := range graphPairs {
			key := fmt.Sprintf("%s{graph=%q}", fam, name)
			got, ok := metrics[key]
			if !ok {
				t.Errorf("sample %s missing from /metrics", key)
				continue
			}
			if int64(got) != want {
				t.Errorf("%s = %v, statz says %d", key, got, want)
			}
		}
	}
	// The latency histogram observed every admitted query.
	if got := metrics["gq_query_duration_seconds_count"]; int64(got) != statz.Accepted {
		t.Errorf("histogram count = %v, want one observation per admitted query (%d)", got, statz.Accepted)
	}
	if got := metrics[`gq_query_duration_seconds_bucket{le="+Inf"}`]; int64(got) != statz.Accepted {
		t.Errorf("+Inf bucket = %v, want %d", got, statz.Accepted)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written from handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLogExactlyOneRecord: one over-threshold query emits exactly
// one structured WARN record carrying the §10 schema, and queries under
// threshold emit nothing.
func TestSlowQueryLogExactlyOneRecord(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(Config{SlowQuery: time.Nanosecond, Logger: logger})
	if err := s.LoadNamed("bank"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || lines[0] == "" {
		t.Fatalf("want exactly 1 slow-query record, got %d:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, lines[0])
	}
	if rec["level"] != "WARN" || rec["msg"] != "slow query" {
		t.Errorf("level/msg = %v/%v", rec["level"], rec["msg"])
	}
	if rec["graph"] != "bank" || rec["query"] != "Transfer*" || rec["outcome"] != "ok" {
		t.Errorf("graph/query/outcome wrong: %v", rec)
	}
	if plan, _ := rec["plan"].(string); !strings.Contains(plan, "dir=") {
		t.Errorf("record missing plan line: %v", rec)
	}
	if spans, _ := rec["spans"].(string); !strings.Contains(spans, "kernel=") {
		t.Errorf("record missing span timings: %v", rec)
	}
	if _, ok := rec["states"]; !ok {
		t.Errorf("record missing budget consumption: %v", rec)
	}

	// An errored query over threshold also logs exactly one record, with
	// its outcome code.
	post(t, ts, `{"graph":"bank","query":"Transfer*","max_states":1}`)
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 records after errored query, got %d", len(lines))
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["outcome"] != "budget_exceeded" {
		t.Errorf("errored record outcome = %v, want budget_exceeded", rec["outcome"])
	}

	// Threshold disabled or not reached: silence.
	buf2 := &syncBuffer{}
	s2 := New(Config{SlowQuery: time.Hour, Logger: slog.New(slog.NewJSONHandler(buf2, nil))})
	if err := s2.LoadNamed("bank"); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	post(t, ts2, `{"graph":"bank","query":"Transfer*"}`)
	if out := buf2.String(); out != "" {
		t.Errorf("under-threshold query logged: %s", out)
	}
}

// Test499NoWriteAfterClientAbort is the regression test for the 499 path:
// when the client cancels mid-evaluation, the handler must only account the
// abort — writing a status or body targets a dead connection. Pre-fix the
// handler wrote a 499 envelope; the recorder catches that.
func Test499NoWriteAfterClientAbort(t *testing.T) {
	s := New(Config{})
	s.Register("big", gen.Cycle(2000, "a"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := strings.NewReader(`{"graph":"big","query":"a* a* a*"}`)
	r := httptest.NewRequest("POST", "/v1/query", body).WithContext(ctx)
	w := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleQuery(w, r)
	}()
	// Wait until the query is actually evaluating, then pull the client.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}

	if w.Body.Len() != 0 {
		t.Errorf("handler wrote %d bytes to an aborted client: %s", w.Body.Len(), w.Body.String())
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Errorf("canceled stat = %d, want 1", st.Canceled)
	}
	if st.Completed != 0 || st.Errors != 0 {
		t.Errorf("abort misclassified: %+v", st)
	}
}

// Test499NoWriteWhenAbortedWhileQueued covers the admission path: a client
// that disappears while waiting for a slot is accounted as canceled with
// nothing written.
func Test499NoWriteWhenAbortedWhileQueued(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	s.Register("bank", gen.BankEdgeLabeled())
	s.sem <- struct{}{} // occupy the only slot

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client is already gone when admission blocks
	r := httptest.NewRequest("POST", "/v1/query",
		strings.NewReader(`{"graph":"bank","query":"Transfer"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.handleQuery(w, r)

	if w.Body.Len() != 0 {
		t.Errorf("handler wrote %d bytes to an aborted queued client: %s", w.Body.Len(), w.Body.String())
	}
	if st := s.Stats(); st.Canceled != 1 || st.Accepted != 0 {
		t.Errorf("queued abort misaccounted: %+v", st)
	}
	<-s.sem
}

// TestClientAbortOverSocket drives the 499 path over a real TCP connection:
// the client sends the request and slams the connection mid-evaluation. The
// handler must account one canceled query and net/http must log no
// superfluous-WriteHeader complaints.
func TestClientAbortOverSocket(t *testing.T) {
	s := New(Config{})
	s.Register("big", gen.Cycle(2000, "a"))
	var errLog syncBuffer
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"graph":"big","query":"a* a* a*"}`
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abort never surfaced as canceled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Give net/http a moment to log anything it wants to, then require
	// silence about superfluous writes.
	time.Sleep(50 * time.Millisecond)
	if out := errLog.String(); strings.Contains(out, "superfluous") {
		t.Errorf("net/http logged a superfluous WriteHeader:\n%s", out)
	}
	if st := s.Stats(); st.Canceled != 1 || st.Completed != 0 {
		t.Errorf("socket abort misaccounted: %+v", st)
	}

	// Read whatever the server wrote before noticing the abort — there
	// should be no HTTP response bytes on this dead connection (best-effort:
	// the connection is closed, so a read simply errors).
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, _ := conn.Read(buf); n != 0 {
		t.Logf("note: %d bytes arrived before abort was noticed", n)
	}
}

// TestMetricsEndpointTouchesNoCounters pins that scraping is free: GETs on
// /metrics must not move any query counter (the consistency guarantee
// between consecutive scrapes and statz reads).
func TestMetricsEndpointTouchesNoCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	post(t, ts, `{"graph":"bank","query":"Transfer"}`)
	before := scrapeMetrics(t, ts)
	for i := 0; i < 3; i++ {
		scrapeMetrics(t, ts)
	}
	after := scrapeMetrics(t, ts)
	for _, name := range []string{"gq_accepted_total", "gq_completed_total", "gq_errors_total"} {
		if before[name] != after[name] {
			t.Errorf("%s moved across scrapes: %v -> %v", name, before[name], after[name])
		}
	}
}
