package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"graphquery/internal/server"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(s, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %g, want 100", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// The quartile rule is Python's statistics.quantiles(v, n=4).
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quantile(ten, 0.25), quantile(ten, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestPromParser(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"gq_accepted_total", nil, 20},
		{"gq_errors_total", nil, 1},
		{"gq_stage_duration_seconds_sum", []string{"stage", "kernel"}, 0.0008166760000000002},
		{"gq_stage_duration_seconds_bucket", []string{"stage", "kernel", "le", "+Inf"}, 20},
		{"gq_stage_duration_seconds_bucket", []string{"stage", "kernel", "le", "0.0001"}, 18},
		{"gq_plan_cache_hits_total", nil, 16},
		{"gq_plan_cache_hits_total", []string{"graph", "live"}, 16},
		{"gq_graph_nodes", nil, 13 + 4 + 3},
		{"gq_graph_nodes", []string{"graph", `we"ird\name`}, 3},
		{"gq_plan_mispick_total", []string{"graph", "live", "knob", "scan"}, 0},
		{"gq_store_mutation_ops_total", nil, 1},
		{"gq_no_such_metric", nil, 0},
	} {
		if got := page.sum(c.name, c.kv...); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("sum(%s %v) = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	if _, err := parseProm(strings.NewReader("gq_x{graph=\"live} 1\n")); err == nil {
		t.Error("unterminated label value parsed without error")
	}
	if _, err := parseProm(strings.NewReader("gq_x one\n")); err == nil {
		t.Error("non-numeric value parsed without error")
	}
}

func TestOpCycleDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, quickSizes, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, quickSizes, 2)
		c, _ := buildWorkload(name, 8, quickSizes, 2)
		if a.cycleText() != b.cycleText() {
			t.Errorf("%s: same seed gave different op cycles", name)
		}
		if !bytes.Equal(a.graphs[0].load, b.graphs[0].load) {
			t.Errorf("%s: same seed gave different graph uploads", name)
		}
		if a.cycleText() == c.cycleText() {
			t.Errorf("%s: seeds 7 and 8 gave the same op cycle", name)
		}
		if len(a.cycle) != cycleLen {
			t.Errorf("%s: cycle has %d ops, want %d", name, len(a.cycle), cycleLen)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	w, err := buildWorkload("cyclic-crpq", 1, quickSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.fillExpected(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(daemonConfig())
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	tg := &target{base: hs.URL, hc: hs.Client()}
	if err := tg.load(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		o := *w.ops[0]
		o.stream = stream
		r := &reader{t: tg, full: true}
		if _, err := r.do(context.Background(), &o); err != nil {
			t.Fatalf("stream=%v: good reply rejected: %v", stream, err)
		}
		if o.want.count == 0 {
			t.Fatal("op returns no rows; the corruption checks below need some")
		}
		body := append([]byte(nil), r.buf...)

		// A wrong count must fail even the cheap tail check.
		bad := o
		bad.want.count++
		if _, err := checkReply(&bad, body, false); err == nil {
			t.Errorf("stream=%v: corrupted count accepted", stream)
		}
		// A changed row with the count intact must fail the full check, and
		// only that one.
		row := bytes.Index(body, []byte(`["n`))
		corrupt := append([]byte(nil), body...)
		corrupt[row+3] ^= 1
		if _, err := checkReply(&o, corrupt, false); err != nil {
			t.Errorf("stream=%v: tail check read the rows: %v", stream, err)
		}
		if _, err := checkReply(&o, corrupt, true); err == nil {
			t.Errorf("stream=%v: corrupted row accepted", stream)
		}
		// A truncated reply has no tail to read.
		if _, err := checkReply(&o, body[:len(body)/2], false); err == nil {
			t.Errorf("stream=%v: truncated reply accepted", stream)
		}
	}
	// An error reply is a failed op.
	bad := *w.ops[0]
	bad.body = mustJSON(server.QueryRequest{Graph: "nope", Query: "a"})
	if _, err := (&reader{t: tg}).do(context.Background(), &bad); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown graph: err = %v, want a 404 failure", err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{"latency_p50_ms", "ms", "lower", 0.10, 0}
	higher := metricDef{"throughput_ops_s", "ops/s", "higher", 0.10, 0}
	tight := func(m float64) spread { return spread{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := func(m float64) spread { return spread{Median: m, Q1: m * 0.8, Q3: m * 1.2} }
	for _, c := range []struct {
		m         metricDef
		base, cur spread
		want      string
	}{
		{lower, tight(100), tight(105), verdictUnchanged},
		{lower, tight(100), tight(115), verdictWorse},
		{lower, tight(100), tight(85), verdictBetter},
		{higher, tight(100), tight(85), verdictWorse},
		{higher, tight(100), tight(115), verdictBetter},
		{lower, wide(100), tight(105), verdictUnresolved},
		{lower, tight(100), wide(95), verdictUnresolved},
		{lower, wide(100), wide(150), verdictWorse},
		{metricDef{"failed_share", "ratio", "lower", 0, 0.001}, tight(0), tight(0.0005), verdictUnchanged},
		{metricDef{"failed_share", "ratio", "lower", 0, 0.001}, tight(0), tight(0.01), verdictWorse},
		{metricDef{"setup_s", "s", "lower", 0.25, 0.05}, tight(0.012), tight(0.03), verdictUnchanged},
	} {
		if got := judge(c.m, c.base, c.cur); got != c.want {
			t.Errorf("judge(%s, %g → %g) = %s, want %s", c.m.name, c.base.Median, c.cur.Median, got, c.want)
		}
	}
	base := &record{Workloads: map[string]map[string]spread{"short-reads": {"latency_p50_ms": tight(2)}}}
	cur := &record{Workloads: map[string]map[string]spread{"short-reads": {"latency_p50_ms": tight(3)}}}
	var out bytes.Buffer
	if !compare(&out, base, cur) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("compare did not flag a 50%% slower median:\n%s", out.String())
	}
	if compare(&out, base, base) {
		t.Error("compare flagged a record against itself")
	}
}

// TestPacedMeasure pins the pacing arithmetic: what happened in a slice the
// host ran at half speed counts for half the time.
func TestPacedMeasure(t *testing.T) {
	const tenth = 100 * time.Millisecond
	meas := &traffic{
		samples: [][]sample{{
			{latency: tenth, firstByte: tenth / 2, rows: 3, slice: 0},
			{latency: 2 * tenth, firstByte: tenth, rows: 6, slice: 1},
			{latency: 2 * tenth, firstByte: tenth, rows: 6, slice: 1},
		}},
		slices: []slice{
			{active: []time.Duration{time.Second}, daemonCPU: 0.5, selfCPU: 0.25, pace: 1},
			{active: []time.Duration{time.Second}, daemonCPU: 1, selfCPU: 0.25, pace: 2},
		},
		commits:   []commit{{slice: 1, latency: 4 * time.Millisecond}},
		attempted: 3,
	}
	rep := &report{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}}
	if err := rep.measure(meas, true); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"throughput_ops_s":     2, // 3 ops in 1 + 1/2 paced seconds
		"latency_p50_ms":       100,
		"first_byte_p50_ms":    50,
		"rows_per_s":           10,
		"server_cpu_ms_per_op": 1000.0 / 3,
		"write_p50_ms":         2,
		"failed_share":         0,
	} {
		if got := rep.e2e[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"host.pace":                    1.5,
		"client.wall_throughput_ops_s": 1.5,
		"client.wall_latency_p50_ms":   200,
		"loadgen.cpu_share":            0.25,
	} {
		if got := rep.layers[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if rep.attempted != 4 || rep.commits != 1 {
		t.Errorf("attempted %d commits %d, want 4 and 1", rep.attempted, rep.commits)
	}
}

// TestQuickPass is the harness end to end without a daemon: every workload
// for one second against an in-process server, every answer checked, and
// one traced replay.
func TestQuickPass(t *testing.T) {
	cfg := config{seed: 3, seconds: time.Second, quick: true, outDir: t.TempDir(), clients: 2, setups: 1,
		slice: quickSlice, refTime: quickRefTime}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel() // each has its own server; the timings mean nothing here
			w, err := buildWorkload(name, cfg.seed, cfg.sizes(), cfg.clients)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.fillExpected(); err != nil {
				t.Fatal(err)
			}
			rep, err := runWorkload(context.Background(), cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Errorf("correct=%v failed=%d: %v", rep.correct, rep.failed, rep.problems)
			}
			for _, m := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p95_ms", "first_byte_p50_ms", "rows_per_s", "setup_s"} {
				if !(rep.e2e[m] > 0) {
					t.Errorf("%s = %v, want > 0", m, rep.e2e[m])
				}
			}
			if got := int(rep.layers["server.accepted"]); got != rep.samples {
				t.Errorf("daemon accepted %d queries in the window, clients completed %d", got, rep.samples)
			}
			if name == "mixed-rw" {
				if rep.commits == 0 || !(rep.e2e["write_p50_ms"] > 0) || rep.layers["store.commits"] == 0 {
					t.Errorf("commits=%d write_p50_ms=%v store.commits=%v", rep.commits, rep.e2e["write_p50_ms"], rep.layers["store.commits"])
				}
			}
			if name == "allpairs-sweep" || name == "mixed-rw" {
				traced, err := traceWorkload(cfg, w)
				if err != nil {
					t.Fatalf("trace: %v", err)
				}
				for _, d := range tracedDefs() {
					if _, ok := traced[d.name]; !ok {
						t.Errorf("traced run reported no %s", d.name)
					}
				}
				if r := traced["trace.layer_sum_over_whole"]; name == "allpairs-sweep" && (r < 0.5 || r > 1.2) {
					t.Errorf("trace.layer_sum_over_whole = %v on a sweep-bound workload", r)
				}
				if name == "mixed-rw" && !(traced["store.mutate_us"] > 0 && traced["graph.materialize_ms"] > 0 && traced["plan.collect_ms"] > 0) {
					t.Errorf("write-path layers not traced: %v", traced)
				}
			}
		})
	}
}

// TestContract keeps BENCHMARK.json in step with the code that prints the
// metrics it declares.
func TestContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the harness", i, w.Name, w.Why)
		}
	}
	want := contractMetrics()
	if len(decl.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(decl.EndToEnd), len(want))
	}
	for i, m := range decl.EndToEnd {
		if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better || m.Bound != w.bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, w)
		}
	}
	layers := perLayer()
	if len(decl.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(decl.PerLayer), len(layers))
	}
	for i, m := range decl.PerLayer {
		if m.Name != layers[i].name || m.Unit != layers[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}

func TestReplyTail(t *testing.T) {
	buffered := []byte(`{"graph":"g","kind":"pairs","pairs":[["a","b"]],"count":1,"states_visited":9,"rows_produced":1,"elapsed_ms":0.25}` + "\n")
	if got, err := parseTail(buffered, false); err != nil || got.count != 1 || got.elapsedMS != 0.25 {
		t.Errorf("buffered tail = %+v, %v", got, err)
	}
	stream := []byte(`{"graph":"g","kind":"pairs"}` + "\n" + `["a","b"]` + "\n" +
		`{"trailer":{"status":"ok","count":1,"states_visited":9,"rows_produced":1,"elapsed_ms":1.5}}` + "\n")
	if got, err := parseTail(stream, true); err != nil || got.count != 1 || got.elapsedMS != 1.5 {
		t.Errorf("stream tail = %+v, %v", got, err)
	}
	failed := bytes.Replace(stream, []byte(`"status":"ok"`), []byte(`"status":"error","code":"timeout"`), 1)
	if _, err := parseTail(failed, true); err == nil {
		t.Error("error trailer accepted")
	}
	if a, err := decodeReply(stream, true); err != nil || a.count != 1 {
		t.Errorf("decodeReply(stream) = %+v, %v", a, err)
	}
	b, _ := decodeReply(buffered, false)
	if a, _ := decodeReply(stream, true); a != b {
		t.Errorf("the two delivery forms of one result digest differently: %+v vs %+v", a, b)
	}
}
