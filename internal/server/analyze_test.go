package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestQueryAnalyze: "analyze": true on POST /v1/query returns the annotated
// plan tree; without it the response has no "analyze" key at all (the
// analyze-off wire shape is unchanged).
func TestQueryAnalyze(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "clique-64")

	status, m := post(t, ts, `{"graph":"clique-64","query":"a a*"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	if _, ok := m["analyze"]; ok {
		t.Fatalf("analyze-off response carries an analyze field: %v", m["analyze"])
	}

	status, m = post(t, ts, `{"graph":"clique-64","query":"a a*","analyze":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	ap, ok := m["analyze"].(map[string]any)
	if !ok {
		t.Fatalf("no analyze object in response: %v", m)
	}
	plan, ok := ap["plan"].(map[string]any)
	if !ok {
		t.Fatalf("analyze object has no plan tree: %v", ap)
	}
	if plan["name"] != "pairs" || plan["detail"] == "" {
		t.Fatalf("root node malformed: %v", plan)
	}
	if q, _ := plan["q_error"].(float64); q < 1 {
		t.Fatalf("root q-error missing: %v", plan)
	}
	sweep, ok := ap["sweep"].(map[string]any)
	if !ok || sweep["states"].(float64) <= 0 {
		t.Fatalf("sweep telemetry missing: %v", ap)
	}
}

// TestAnalyzeMetricsAndStatz: analyze-mode queries feed gq_cardest_qerror,
// the one estimate-quality family; /metrics also exports the Go runtime
// health gauges. The mispick and cardinality-feedback surfaces that once
// restated analyze's q-errors are gone from /metrics and /v1/statz alike.
func TestAnalyzeMetricsAndStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "clique-64")
	if status, m := post(t, ts, `{"graph":"clique-64","query":"a a*","analyze":true}`); status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	metrics := string(raw)
	for _, want := range []string{
		"gq_cardest_qerror_count 1",
		"gq_go_goroutines",
		"gq_go_heap_alloc_bytes",
		"gq_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, gone := range []string{
		"gq_plan_mispick_total",
		"gq_cardest_feedback_records_total",
		"gq_cardest_feedback_exprs",
		"gq_cardest_feedback_mean_qerror",
		"gq_cardest_feedback_max_qerror",
	} {
		if strings.Contains(metrics, gone) {
			t.Errorf("/metrics still renders %q", gone)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statz struct {
		Graphs map[string]map[string]any `json:"graphs"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	g, ok := statz.Graphs["clique-64"]
	if !ok {
		t.Fatalf("statz has no clique-64 graph: %v", statz.Graphs)
	}
	if _, ok := g["feedback"]; ok {
		t.Errorf("statz still carries a feedback object: %v", g["feedback"])
	}
	rt, _ := g["runtime"].(map[string]any)
	if _, ok := rt["mispick_direction"]; ok || rt == nil {
		t.Errorf("statz runtime %v: want one with no mispick_direction", rt)
	}
}

// TestAnalyzeInQueryLog: analyze-mode queries carry their annotated plan in
// the query event log record (and therefore the slow-query WARN, which
// renders the same record).
func TestAnalyzeInQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{QueryLog: &buf, SlowQuery: time.Nanosecond}, "clique-64")
	if status, m := post(t, ts, `{"graph":"clique-64","query":"a a*","analyze":true}`); status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	if status, m := post(t, ts, `{"graph":"clique-64","query":"a a*"}`); status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	lines := bytes.Split(bytes.TrimSpace([]byte(buf.String())), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 query-log records, got %d", len(lines))
	}
	var withAnalyze, without map[string]any
	if err := json.Unmarshal(lines[0], &withAnalyze); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &without); err != nil {
		t.Fatal(err)
	}
	if _, ok := withAnalyze["analyze"]; !ok {
		t.Fatalf("analyze-mode record has no analyze field: %s", lines[0])
	}
	if _, ok := without["analyze"]; ok {
		t.Fatalf("analyze-off record has an analyze field: %s", lines[1])
	}
}
