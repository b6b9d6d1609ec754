package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphquery/internal/core"
)

func newTestServer(t *testing.T, cfg Config, graphs ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.LoadNamed(graphs...); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a /v1/query body and decodes the JSON response (success or
// error envelope) into a generic map.
func post(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
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
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response %d is not JSON: %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, m
}

func errorCode(t *testing.T, m map[string]any) string {
	t.Helper()
	env, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", m)
	}
	code, _ := env["code"].(string)
	if msg, _ := env["message"].(string); msg == "" {
		t.Errorf("error envelope without message: %v", m)
	}
	return code
}

func TestQueryEndpointSuccess(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank", "bank-property", "figure5-4")

	status, m := post(t, ts, `{"graph":"bank","query":"Transfer*"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, m)
	}
	if m["kind"] != "pairs" || len(m["pairs"].([]any)) == 0 {
		t.Fatalf("want pairs, got %v", m)
	}

	status, m = post(t, ts, `{"graph":"bank","query":"q(x,y) :- Transfer(x,y), Transfer(y,x)"}`)
	if status != http.StatusOK || m["kind"] != "rows" {
		t.Fatalf("CRPQ: status %d, %v", status, m)
	}

	status, m = post(t, ts, `{"graph":"figure5-4","query":"a*","from":"s","to":"t","mode":"shortest"}`)
	if status != http.StatusOK || m["kind"] != "paths" || m["count"].(float64) != 16 {
		t.Fatalf("paths: status %d, %v", status, m)
	}

	status, m = post(t, ts, `{"graph":"bank","query":"~Transfer Transfer","lang":"2rpq"}`)
	if status != http.StatusOK || m["kind"] != "pairs" {
		t.Fatalf("2rpq: status %d, %v", status, m)
	}

	// 2RPQ text is read like RPQ text: quoted labels, and '.' between
	// the factors of a concatenation.
	_, want := post(t, ts, `{"graph":"bank","query":"owner ~owner","lang":"2rpq"}`)
	status, m = post(t, ts, `{"graph":"bank","query":"'owner'.~'owner'","lang":"2rpq"}`)
	if status != http.StatusOK || len(want["pairs"].([]any)) == 0 || !reflect.DeepEqual(m["pairs"], want["pairs"]) {
		t.Fatalf("quoted 2rpq: status %d, %v, want the pairs of owner ~owner, %v", status, m, want)
	}

	status, m = post(t, ts, `{"graph":"bank","query":"(Transfer^z)+","from":"a3","to":"a1","mode":"shortest"}`)
	if status != http.StatusOK || m["kind"] != "paths" {
		t.Fatalf("lrpq: status %d, %v", status, m)
	}

	status, m = post(t, ts, `{"graph":"bank-property","query":"() [Transfer][amount < 4500000] ()","from":"a3","to":"a4","mode":"shortest"}`)
	if status != http.StatusOK || m["kind"] != "paths" {
		t.Fatalf("dlrpq: status %d, %v", status, m)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad json", `{"graph": bank}`, http.StatusBadRequest, "invalid_request"},
		{"missing query", `{"graph":"bank"}`, http.StatusBadRequest, "invalid_request"},
		{"bad mode", `{"graph":"bank","query":"a","mode":"sideways"}`, http.StatusBadRequest, "invalid_request"},
		{"unknown graph", `{"graph":"nope","query":"a"}`, http.StatusNotFound, "unknown_graph"},
		{"parse error", `{"graph":"bank","query":"((("}`, http.StatusBadRequest, "invalid_query"},
		{"unknown node", `{"graph":"bank","query":"Transfer","from":"nope","to":"a1"}`, http.StatusBadRequest, "invalid_query"},
		{"pmr simple", `{"graph":"bank","lang":"pmr","query":"Transfer*","from":"a1","to":"a3","limit":4,"mode":"simple"}`, http.StatusBadRequest, "invalid_query"},
		{"pmr trail", `{"graph":"bank","lang":"pmr","query":"Transfer*","from":"a1","to":"a3","limit":4,"mode":"trail"}`, http.StatusBadRequest, "invalid_query"},
	}
	for _, tc := range cases {
		status, m := post(t, ts, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, status, tc.status, m)
			continue
		}
		if code := errorCode(t, m); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}
}

// TestQueryEndpointRefusesHugeAutomata: fourteen bytes of `a*++++++++++++`
// unroll to 4 096 Glushkov positions — 16 million transitions, 14 s of
// compilation. Every served path that compiles an RPQ refuses them as the
// client's error, naming the count and the bound, before the compiler runs.
//
// The rows named "deep" are a second bound on the same parsers: a query
// whose groups nest past rpq.MaxNesting, padded to a whole request body
// (1 MiB) of parentheses, is refused as soon as the parser reaches the
// bound, without descending through the rest.
//
// No refused text is evaluated: across the whole table the engine's kernel
// counters stay where they were. Every lang of the engine's table of served
// kinds has a row for each bound.
func TestQueryEndpointRefusesHugeAutomata(t *testing.T) {
	s, ts := newTestServer(t, Config{}, "bank")
	const huge = "a*++++++++++++"
	// deepOf fills the %s of a request body with q under as many nested
	// groups as bring the body to maxRequestBytes; deep puts `a` there.
	deepOf := func(body, q string) string {
		k := (maxRequestBytes - len(body) + len("%s") - len(q)) / 2
		return fmt.Sprintf(body, strings.Repeat("(", k)+q+strings.Repeat(")", k))
	}
	deep := func(body string) string { return deepOf(body, "a") }
	// deepBraces is deep for dl-RPQs, whose groups are braces.
	deepBraces := func(body string) string {
		k := (maxRequestBytes - len(body) + len("%s") - len("[a]")) / 2
		return fmt.Sprintf(body, strings.Repeat("{", k)+"[a]"+strings.Repeat("}", k))
	}
	// fill fills the %s of a request body with q followed by as many
	// copies of unit as bring the body to maxRequestBytes.
	fill := func(body, q, unit string) string {
		k := (maxRequestBytes - len(body) + len("%s") - len(q)) / len(unit)
		return fmt.Sprintf(body, q+strings.Repeat(unit, k))
	}
	// chain fills the %s of a request body with head, as many copies of
	// unit as bring the body to maxRequestBytes, and tail.
	chain := func(body, head, unit, tail string) string {
		k := (maxRequestBytes - len(body) + len("%s") - len(head) - len(tail)) / len(unit)
		return fmt.Sprintf(body, head+strings.Repeat(unit, k)+tail)
	}
	positions := []string{"automaton positions", "4096", "the bound is 512"}
	tooLarge := []string{"automaton positions", "the bound is 512"}
	nesting := []string{"nest 1001 deep", "the bound is 1000"}
	rows := []struct {
		name, body string
		want       []string // what the message names
	}{
		{"rpq", `{"graph":"bank","query":"` + huge + `"}`, positions},
		{"rpq anchored", `{"graph":"bank","query":"` + huge + `","from":"a1","to":"a2","mode":"shortest"}`, positions},
		{"crpq atom", `{"graph":"bank","query":"q(x,y) :- Transfer(x,z), ` + huge + `(z,y)"}`, positions},
		{"2rpq", `{"graph":"bank","lang":"2rpq","query":"(~a)*++++++++++++"}`, positions},
		{"pmr", `{"graph":"bank","lang":"pmr","query":"` + huge + `","from":"a1","to":"a2","limit":1}`, positions},
		{"bag", `{"graph":"bank","lang":"bag","query":"` + huge + `"}`, positions},
		{"relalg", `{"graph":"bank","lang":"relalg","query":"REACH(` + huge + `) AS (x, y)"}`, positions},
		{"spanner", `{"graph":"bank","lang":"spanner","query":"x{` + huge + `}","doc":"aaaa"}`, positions},
		{"dlrpq huge", `{"graph":"bank","query":"{[a]*}{4000}","from":"a1","to":"a2"}`, []string{"automaton positions", "4001", "the bound is 512"}},
		{"crpq dl-atom huge", `{"graph":"bank","query":"q(x,y) :- Transfer(x,z), {[a]*}{4000}(z,y)"}`, []string{"automaton positions", "4001", "the bound is 512"}},
		{"repeat count", `{"graph":"bank","query":"(a a a a){1,4611686018427387904}"}`, []string{"automaton positions", "the bound is 512"}},
		{"rpq deep", deep(`{"graph":"bank","query":"%s"}`), nesting},
		{"rpq anchored deep", deep(`{"graph":"bank","query":"%s","from":"a1","to":"a2","mode":"shortest"}`), nesting},
		{"crpq atom deep", deep(`{"graph":"bank","query":"q(x,y) :- Transfer(x,z), %s(z,y)"}`), nesting},
		{"2rpq deep", deep(`{"graph":"bank","lang":"2rpq","query":"%s"}`), nesting},
		{"dlrpq deep", deepBraces(`{"graph":"bank","query":"%s","from":"a1","to":"a2"}`), nesting},
		{"pmr deep", deep(`{"graph":"bank","lang":"pmr","query":"%s","from":"a1","to":"a2","limit":1}`), nesting},
		{"bag deep", deep(`{"graph":"bank","lang":"bag","query":"%s"}`), nesting},
		{"relalg deep", deep(`{"graph":"bank","lang":"relalg","query":"REACH(%s) AS (x, y)"}`), nesting},
		{"relalg groups deep", deepOf(`{"graph":"bank","lang":"relalg","query":"%s"}`, "REACH(a) AS (x, y)"), nesting},
		{"gql deep", deepOf(`{"graph":"bank","lang":"gql","query":"%s"}`, "()-[:a]->()"), nesting},
		{"coregql deep", deepOf(`{"graph":"bank","lang":"coregql","query":"%s"}`, "()-->()"), nesting},
		{"spanner deep", deep(`{"graph":"bank","lang":"spanner","query":"%s","doc":"aaaa"}`), nesting},
		{"cypher deep", deep(`{"graph":"bank","lang":"cypher","query":"%s"}`), nesting},
		{"gql postfix deep", `{"graph":"bank","lang":"gql","query":"(x)` + strings.Repeat("*", 600000) + `"}`, nesting},
		{"coregql postfix deep", `{"graph":"bank","lang":"coregql","query":"(x)` + strings.Repeat("*", 600000) + `"}`, nesting},
		{"gql huge", `{"graph":"bank","lang":"gql","query":"(()-[:a]->()){4000}"}`, []string{"automaton positions", "12003", "the bound is 512"}},
		{"gql chain", fill(`{"graph":"bank","lang":"gql","query":"%s"}`, "", "-[:a]->"), tooLarge},
		{"coregql chain", fill(`{"graph":"bank","lang":"coregql","query":"%s"}`, "", "-->"), tooLarge},
		{"cypher chain", fill(`{"graph":"bank","lang":"cypher","query":"%s"}`, "", "-[:a]->"), tooLarge},
		{"spanner chain", fill(`{"graph":"bank","lang":"spanner","query":"%s","doc":"aaaa"}`, "", "a"), []string{"513 parts", "the bound is 512"}},
		{"relalg UNION chain", fill(`{"graph":"bank","lang":"relalg","query":"%s"}`, "REACH(a) AS (x, y)", " UNION REACH(a) AS (x, y)"), tooLarge},
		{"relalg JOIN chain", fill(`{"graph":"bank","lang":"relalg","query":"%s"}`, "REACH(a) AS (x, y)", " JOIN REACH(a) AS (y, z)"), tooLarge},
		{"relalg DIFF chain", fill(`{"graph":"bank","lang":"relalg","query":"%s"}`, "REACH(a) AS (x, y)", " DIFF REACH(a) AS (x, y)"), tooLarge},
		{"gql AND chain", chain(`{"graph":"bank","lang":"gql","query":"%s"}`, "((x) WHERE x.k = 1", " AND x.k = 1", ")"), []string{"513 parts", "the bound is 512"}},
		{"gql OR chain", chain(`{"graph":"bank","lang":"gql","query":"%s"}`, "((x) WHERE x.k = 1", " OR x.k = 1", ")"), []string{"513 parts", "the bound is 512"}},
		{"gql NOT chain", chain(`{"graph":"bank","lang":"gql","query":"%s"}`, "((x) WHERE ", "NOT ", "x.k = 1)"), nesting},
		{"crpq chain", fill(`{"graph":"bank","query":"%s"}`, "q(x, y) :- a(x, y)", ", a(x, y)"), tooLarge},
		{"dlrpq negative count", `{"graph":"bank","query":"[a]{2,-1}","from":"a1","to":"a2"}`, []string{"repetition count"}},
		{"gql empty iteration", `{"graph":"bank","lang":"gql","query":"(x)*"}`, []string{"zero-length path that binds a variable"}},
		{"gql empty iteration in a union", `{"graph":"bank","lang":"gql","query":"((x) | -[e]->)*"}`, []string{"zero-length path that binds a variable"}},
	}
	bounded := map[string][]string{} // lang → the bounds its rows name
	for _, tc := range rows {
		var req QueryRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bounded[req.Lang] = append(bounded[req.Lang], tc.want...)
	}
	for _, lang := range core.Langs() {
		for _, bound := range []string{"the bound is 512", "the bound is 1000"} {
			if !slices.Contains(bounded[lang], bound) {
				t.Errorf("lang %q has no row naming %q", lang, bound)
			}
		}
	}
	before := s.Stats().Graphs["bank"].Runtime
	for _, tc := range rows {
		status, m := post(t, ts, tc.body)
		if status != http.StatusBadRequest || errorCode(t, m) != "invalid_query" {
			t.Errorf("%s: status %d, want 400 invalid_query (%v)", tc.name, status, m)
			continue
		}
		msg, _ := m["error"].(map[string]any)["message"].(string)
		for _, want := range tc.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: message %q does not name %q", tc.name, msg, want)
			}
		}
	}
	if after := s.Stats().Graphs["bank"].Runtime; after.StatesExpanded != before.StatesExpanded || after.EdgesScanned != before.EdgesScanned {
		t.Errorf("refused texts were evaluated: kernel counters %+v -> %+v", before, after)
	}
}

// TestQueryEndpointDeadline is the ISSUE acceptance check: a 50ms deadline
// on an expensive query returns 504 within 2x the deadline. The input is a
// long cycle under a 500-step chain: nothing is shared between sources and
// nothing condenses, so the all-pairs query spends ~0.5s in the kernel for
// 20 000 rows.
func TestQueryEndpointDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Parallelism: 1}, "cycle-20000")
	start := time.Now()
	status, m := post(t, ts, `{"graph":"cycle-20000","query":"a{500}","timeout_ms":50}`)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", status, m)
	}
	if code := errorCode(t, m); code != "timeout" {
		t.Fatalf("code %q, want timeout", code)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("504 after %v; want within 2x the 50ms deadline", elapsed)
	}
}

func TestQueryEndpointRowBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxLen: 18}, "figure5-18")
	status, m := post(t, ts, `{"graph":"figure5-18","query":"a*","from":"s","to":"t","max_rows":50}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%v)", status, m)
	}
	if code := errorCode(t, m); code != "budget_exceeded" {
		t.Fatalf("code %q, want budget_exceeded", code)
	}
}

// TestQueryEndpointOverload saturates a 1-slot/1-queue server and checks
// the third concurrent query is rejected with 429 immediately.
func TestQueryEndpointOverload(t *testing.T) {
	// Each slow query holds its slot for about half a second — the all-pairs
	// sweep of the long cycle under a 500-step chain — or until its 500ms
	// deadline.
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, Parallelism: 1}, "cycle-20000")
	slow := `{"graph":"cycle-20000","query":"a{500}","timeout_ms":500}`

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, slow)
		}()
		// Wait until this query occupies its slot (first: in flight;
		// second: queued) before firing the next.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s.Stats()
			if st.InFlight >= 1 && st.Queued >= int64(i) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never reached in_flight>=1, queued>=%d: %+v", i, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	status, m := post(t, ts, slow)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%v)", status, m)
	}
	if code := errorCode(t, m); code != "overloaded" {
		t.Fatalf("code %q, want overloaded", code)
	}
	wg.Wait()
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}
}

func TestMetaEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Second}, "bank", "figure5-4")

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var gl map[string][]GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&gl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(gl["graphs"]) != 2 || gl["graphs"][0].Name != "bank" || gl["graphs"][0].Nodes == 0 {
		t.Fatalf("graphs: %+v", gl)
	}

	// Drive some traffic, then check the counters flow through statz JSON.
	post(t, ts, `{"graph":"bank","query":"Transfer*"}`)
	post(t, ts, `{"graph":"bank","query":"((("}`)
	resp, err = http.Get(ts.URL + "/v1/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != 2 || st.Completed != 1 || st.Errors != 1 {
		t.Fatalf("statz counters: %+v", st)
	}
	if st.StatesVisited == 0 || st.RowsReturned == 0 {
		t.Errorf("meter totals not aggregated: %+v", st)
	}
	if g, ok := st.Graphs["bank"]; !ok || g.Cache.Misses == 0 {
		t.Errorf("per-graph cache stats missing: %+v", st.Graphs)
	}
	if g := st.Graphs["bank"]; g.Runtime.StatesExpanded == 0 ||
		g.Runtime.PlanForward+g.Runtime.PlanBackward == 0 {
		t.Errorf("kernel runtime counters missing from statz: %+v", g.Runtime)
	}
	// The HTTP snapshot matches the in-process one (modulo the statz
	// requests themselves, which touch no counters).
	if direct := s.Stats(); direct.Accepted != st.Accepted {
		t.Errorf("HTTP statz %d accepted, direct %d", st.Accepted, direct.Accepted)
	}
}

// TestErrorEnvelopeShape checks the taxonomy round-trips JSON: code and
// message fields decode into the documented envelope for every error class.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	status, m := post(t, ts, `{"graph":"bank","query":"a","max_states":1}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %v", status, m)
	}
	var env errorEnvelope
	raw, _ := json.Marshal(m)
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "budget_exceeded" || !strings.Contains(env.Error.Message, "states budget") {
		t.Fatalf("envelope: %+v", env)
	}
}

// TestRequestBodyLimit pins the body-size taxonomy: an over-limit body is
// 413 too_large (the client sent too much, not malformed JSON), while a
// body under the limit that is still broken JSON stays 400 invalid_request.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{}, "bank")
	huge := `{"graph":"bank","query":"` + strings.Repeat("a|", maxRequestBytes) + `a"}`
	status, m := post(t, ts, huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%v)", status, m)
	}
	if code := errorCode(t, m); code != "too_large" {
		t.Fatalf("code %q, want too_large", code)
	}

	status, m = post(t, ts, `{"graph":"bank","query":`)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%v)", status, m)
	}
	if code := errorCode(t, m); code != "invalid_request" {
		t.Fatalf("code %q, want invalid_request", code)
	}
}
