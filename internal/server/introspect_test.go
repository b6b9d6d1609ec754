package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphquery/internal/obs"
)

// postRaw is post with access to the response headers (X-Query-ID).
func postRaw(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("response %d is not JSON: %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp, m
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestLiveQueryObservedAndKilled is the tentpole acceptance test: a slow
// query shows up in GET /v1/queries with live, growing progress; an
// operator kill via POST /v1/queries/{id}/cancel ends it with a 499
// "killed" envelope (no partial results), and the killed outcome lands in
// /v1/queries/recent, the statz counter, and gq_killed_total.
func TestLiveQueryObservedAndKilled(t *testing.T) {
	s, ts := newTestServer(t, Config{Parallelism: 1}, "cycle-3000")

	type result struct {
		resp *http.Response
		m    map[string]any
	}
	done := make(chan result, 1)
	go func() {
		resp, m := postRaw(t, ts, `{"graph":"cycle-3000","query":"a* a* a*","timeout_ms":30000}`)
		done <- result{resp, m}
	}()

	// Poll the live view until the query is visible with nonzero progress.
	var live struct {
		Queries []obs.LiveQuery `json:"queries"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts, "/v1/queries", &live)
		if len(live.Queries) == 1 && live.Queries[0].States > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never appeared in /v1/queries with progress: %+v", live)
		}
		time.Sleep(2 * time.Millisecond)
	}
	q := live.Queries[0]
	if q.ID == 0 || q.Graph != "cycle-3000" || q.Query != "a* a* a*" {
		t.Fatalf("live entry malformed: %+v", q)
	}
	if q.Stage == "" || q.ElapsedMS <= 0 {
		t.Errorf("live entry missing stage/elapsed: %+v", q)
	}

	// Progress is live: a later sample shows strictly more swept states.
	first := q.States
	for {
		getJSON(t, ts, "/v1/queries", &live)
		if len(live.Queries) == 1 && live.Queries[0].States > first {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("states never advanced past %d: %+v", first, live)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill it.
	resp, err := http.Post(fmt.Sprintf("%s/v1/queries/%d/cancel", ts.URL, q.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var kill map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&kill); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || kill["killed"] != true {
		t.Fatalf("cancel: status %d, body %v", resp.StatusCode, kill)
	}

	// The query's own reply: 499, code "killed", no partial results, and the
	// X-Query-ID header names the killed query.
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("killed query never returned")
	}
	if r.resp.StatusCode != statusClientClosedRequest {
		t.Fatalf("killed query status = %d, want 499 (%v)", r.resp.StatusCode, r.m)
	}
	if code := errorCode(t, r.m); code != "killed" {
		t.Fatalf("killed query code = %q, want killed", code)
	}
	if _, ok := r.m["pairs"]; ok {
		t.Fatal("killed query returned partial results")
	}
	if got := r.resp.Header.Get("X-Query-ID"); got != strconv.FormatUint(q.ID, 10) {
		t.Errorf("X-Query-ID = %q, want %d", got, q.ID)
	}

	// It left the live view and entered the recent ring with outcome killed.
	getJSON(t, ts, "/v1/queries", &live)
	if len(live.Queries) != 0 {
		t.Errorf("killed query still live: %+v", live.Queries)
	}
	var recent struct {
		Queries []obs.CompletedQuery `json:"queries"`
	}
	getJSON(t, ts, "/v1/queries/recent", &recent)
	if len(recent.Queries) != 1 {
		t.Fatalf("recent ring has %d entries, want 1", len(recent.Queries))
	}
	rec := recent.Queries[0]
	if rec.ID != q.ID || rec.Outcome != "killed" || rec.Error == "" {
		t.Fatalf("recent entry: %+v, want id %d outcome killed", rec, q.ID)
	}
	if rec.States == 0 {
		t.Errorf("killed query's record lost its budget consumption: %+v", rec)
	}

	if st := s.Stats(); st.Killed != 1 || st.Canceled != 0 {
		t.Errorf("kill accounting: killed=%d canceled=%d, want 1/0", st.Killed, st.Canceled)
	}
	if m := scrapeMetrics(t, ts); m["gq_killed_total"] != 1 {
		t.Errorf("gq_killed_total = %v, want 1", m["gq_killed_total"])
	}
}

// TestCancelUnknownQuery: bad IDs are client errors, not crashes.
func TestCancelUnknownQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	resp, err := http.Post(ts.URL+"/v1/queries/12345/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%v)", resp.StatusCode, m)
	}
	if code := errorCode(t, m); code != "unknown_query" {
		t.Fatalf("code %q, want unknown_query", code)
	}

	resp, err = http.Post(ts.URL+"/v1/queries/banana/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestXQueryIDOnEveryAdmittedReply: success and error replies alike carry
// the registry ID, and IDs increase across queries. Requests rejected
// before admission (nothing to introspect) carry none.
func TestXQueryIDOnEveryAdmittedReply(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")

	resp1, _ := postRaw(t, ts, `{"graph":"bank","query":"Transfer*"}`)
	id1, err := strconv.ParseUint(resp1.Header.Get("X-Query-ID"), 10, 64)
	if err != nil || id1 == 0 {
		t.Fatalf("success reply X-Query-ID = %q: %v", resp1.Header.Get("X-Query-ID"), err)
	}

	// A parse error happens after admission — the query was registered, so
	// its error reply is introspectable by ID too.
	resp2, m := postRaw(t, ts, `{"graph":"bank","query":"((("}`)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %v", resp2.StatusCode, m)
	}
	id2, err := strconv.ParseUint(resp2.Header.Get("X-Query-ID"), 10, 64)
	if err != nil || id2 <= id1 {
		t.Fatalf("error reply X-Query-ID = %q (prev %d): want a fresh larger ID",
			resp2.Header.Get("X-Query-ID"), id1)
	}

	// Pre-admission rejections (no query text) have no ID.
	resp3, _ := postRaw(t, ts, `{"graph":"bank"}`)
	if got := resp3.Header.Get("X-Query-ID"); got != "" {
		t.Errorf("unadmitted request got X-Query-ID %q", got)
	}

	// Both admitted queries are in the recent ring, newest first.
	var recent struct {
		Queries []obs.CompletedQuery `json:"queries"`
	}
	getJSON(t, ts, "/v1/queries/recent", &recent)
	if len(recent.Queries) != 2 || recent.Queries[0].ID != id2 || recent.Queries[1].ID != id1 {
		t.Fatalf("recent ring: %+v, want [%d %d]", recent.Queries, id2, id1)
	}
	if recent.Queries[0].Outcome != "invalid_query" || recent.Queries[1].Outcome != "ok" {
		t.Errorf("recent outcomes: %q/%q", recent.Queries[0].Outcome, recent.Queries[1].Outcome)
	}
}

// TestQueryLogOneRecordPerAdmittedQuery: the -query-log sink receives
// exactly one JSONL record per admitted query — every outcome class, never
// the unadmitted — with the full §10 schema.
func TestQueryLogOneRecordPerAdmittedQuery(t *testing.T) {
	var buf syncBuffer
	s, ts := newTestServer(t, Config{QueryLog: &buf}, "bank")

	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)                // ok
	post(t, ts, `{"graph":"bank","query":"((("}`)                      // invalid_query
	post(t, ts, `{"graph":"bank","query":"Transfer*","max_states":1}`) // budget_exceeded
	post(t, ts, `{"graph":"nope","query":"a"}`)                        // unknown graph: not admitted
	post(t, ts, `{"graph":"bank"}`)                                    // no query: not admitted

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := int(s.Stats().Accepted); len(lines) != want || want != 3 {
		t.Fatalf("query log has %d records, accepted = %d, want 3:\n%s", len(lines), want, buf.String())
	}
	wantOutcomes := []string{"ok", "invalid_query", "budget_exceeded"}
	var lastID uint64
	for i, line := range lines {
		var rec obs.CompletedQuery
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.ID <= lastID {
			t.Errorf("record %d: ID %d not increasing (prev %d)", i, rec.ID, lastID)
		}
		lastID = rec.ID
		if rec.Graph != "bank" || rec.Query == "" || rec.Outcome != wantOutcomes[i] {
			t.Errorf("record %d: graph/query/outcome = %q/%q/%q, want outcome %q",
				i, rec.Graph, rec.Query, rec.Outcome, wantOutcomes[i])
		}
		if rec.StartedAt.IsZero() || rec.ElapsedMS < 0 {
			t.Errorf("record %d missing timing: %+v", i, rec)
		}
	}
	// The ok record carries plan, spans, and consumption; errored records
	// carry the error text.
	var ok0, bad1 obs.CompletedQuery
	json.Unmarshal([]byte(lines[0]), &ok0)
	json.Unmarshal([]byte(lines[1]), &bad1)
	if !strings.Contains(ok0.Plan, "dir=") || len(ok0.Spans) == 0 || ok0.States == 0 {
		t.Errorf("ok record incomplete: %+v", ok0)
	}
	if bad1.Error == "" {
		t.Errorf("errored record has no error text: %+v", bad1)
	}
}

// TestStageHistograms: per-stage latency histograms are populated and stay
// within the whole-query wall clock (stages are sections of it).
func TestStageHistograms(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)
	post(t, ts, `{"graph":"bank","query":"q(x,y) :- Transfer(x,y)"}`)
	// Pairs and rows are rendered inside their kernel span; a path query
	// is what has an enumerate stage.
	post(t, ts, `{"graph":"bank","query":"Transfer+","from":"a3","to":"a1","mode":"shortest"}`)

	m := scrapeMetrics(t, ts)
	if got := m[`gq_stage_duration_seconds_count{stage="kernel"}`]; got < 2 {
		t.Errorf("kernel stage count = %v, want >= 2", got)
	}
	if got := m[`gq_stage_duration_seconds_count{stage="enumerate"}`]; got < 1 {
		t.Errorf("enumerate stage count = %v, want >= 1", got)
	}
	var stageSum float64
	for _, stage := range stageNames {
		stageSum += m[fmt.Sprintf(`gq_stage_duration_seconds_sum{stage=%q}`, stage)]
	}
	if total := m["gq_query_duration_seconds_sum"]; stageSum > total {
		t.Errorf("stage sums %v exceed query wall-clock sum %v", stageSum, total)
	}
}

// TestHandlerContainsPanic: a panic on the handler goroutine during
// evaluation — before any row (the snapshot pin) or after rows went out
// (its release) — is answered as the internal error class, envelope or
// trailer, and leaves nothing behind: the slot is released, the registry
// entry finished, the outcome counted and logged. Queries on another graph
// run beside it undisturbed.
func TestHandlerContainsPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, "bank", "figure5-4")
	s.chunkBytes = 1 // the first row leaves before the release panics
	g := s.Engine("bank").Graph()

	healthy := make(chan string, 1)
	go func() {
		for i := 0; i < 20; i++ {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"graph":"figure5-4","query":"a*"}`))
			if err == nil {
				resp.Body.Close()
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				healthy <- fmt.Sprintf("healthy query beside the panics: %v %v", resp, err)
				return
			}
		}
		healthy <- ""
	}()

	s.Engine("bank").SetGraphPinned(g, 2, func() func() { panic("pin bug") })
	code, m := post(t, ts, `{"graph":"bank","query":"Transfer*"}`)
	if code != http.StatusInternalServerError || errorCode(t, m) != "internal" {
		t.Fatalf("panic before the first row: %d %v, want 500 internal", code, m)
	}

	s.Engine("bank").SetGraphPinned(g, 3, func() func() { return func() { panic("release bug") } })
	got := readNDJSON(t, postStream(t, ts, `{"graph":"bank","query":"Transfer*"}`))
	if got.trailer["status"] != "error" || got.trailer["code"] != "internal" || len(got.rows) == 0 {
		t.Fatalf("panic after rows went out: %d rows, trailer %v; want rows then an internal error trailer", len(got.rows), got.trailer)
	}

	if msg := <-healthy; msg != "" {
		t.Fatal(msg)
	}
	if live := s.Registry().Live(); len(live) != 0 {
		t.Errorf("registry still lists %d in-flight queries", len(live))
	}
	internal := 0
	for _, rec := range s.Registry().Recent() {
		if rec.Outcome == "internal" && strings.Contains(rec.Error, "panic") {
			internal++
		}
	}
	if st := s.Stats(); internal != 2 || st.Errors != 2 || st.InFlight != 0 {
		t.Errorf("%d internal records, stats %+v; want both panics recorded and counted, nothing in flight", internal, st)
	}
	// Both slots are free again: two more queries are admitted at once.
	s.Engine("bank").SetGraph(g, 4)
	for i := 0; i < 2; i++ {
		if code, m := post(t, ts, `{"graph":"bank","query":"Transfer*"}`); code != http.StatusOK {
			t.Fatalf("query after the panics: %d %v", code, m)
		}
	}
}
