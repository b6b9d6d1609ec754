// Command bench is the served-workload benchmark of gqserverd: it builds
// the daemon from the checkout, starts a fresh one per workload, uploads
// seeded graphs, drives one of five traffic mixes over keep-alive
// connections while checking every answer, and prints each metric by name
// with its unit. See README.md in this directory.
//
//	go run ./bench -seed 1                    # all five workloads, 20 s each
//	go run ./bench -seed 1 -trace 1           # plus per-layer metrics and span files
//	go run ./bench -workload big-results      # one workload; last line is JSON
//	go run ./bench -runs 5                    # repeat the suite; medians and quartiles
//	go run ./bench -compare old.json new.json # verdict per workload × metric
//	go run ./bench -quick                     # 1 s per workload, in-process, small graphs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// maxClients caps the closed-loop clients: one per core of the two-core
// box the bounds were calibrated on, so more cores do not change the load.
const maxClients = 2

// setupRuns is how many times each workload's set-up is timed per run.
const setupRuns = 5

// singleRunLimit bounds one -workload invocation, which a driver expects
// back within three minutes.
const singleRunLimit = 170 * time.Second

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload and end with one JSON result line (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the generated graphs and op cycles")
	seconds := flag.Int("seconds", 20, "measured seconds per workload, after a 3 s warm-up")
	traceFlag := flag.Int("trace", 0, "1: also run the in-process traced replay and report the per-layer metrics")
	quick := flag.Bool("quick", false, "smoke pass: 1 s per workload against an in-process server with small graphs")
	runs := flag.Int("runs", 1, "repeat the suite this many times and record medians and quartiles")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for the daemon binary, logs, span files and run.json")
	doCompare := flag.Bool("compare", false, "compare two run records: -compare old.json new.json; exit 1 if any metric got worse")
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two run records, got %d arguments", flag.NArg()))
		}
		base, err := readRecord(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readRecord(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, base, cur) {
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, singleRunLimit)
		defer cancel()
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		quick:   *quick,
		trace:   *traceFlag != 0,
		outDir:  *outDir,
		clients: min(maxClients, runtime.NumCPU()),
		setups:  setupRuns,
		slice:   trafficSlice,
		refTime: refTime,
	}
	if cfg.quick {
		cfg.seconds, cfg.setups, cfg.slice, cfg.refTime = time.Second, 1, quickSlice, quickRefTime
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	if !filepath.IsAbs(cfg.outDir) {
		cfg.outDir = filepath.Join(root, cfg.outDir)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	if !cfg.quick {
		if cfg.bin, err = buildDaemon(ctx, root, cfg.outDir); err != nil {
			fatal(err)
		}
	}

	rec := &record{
		Meta: recordMeta{Commit: gitCommit(root), Go: runtime.Version(), NProc: runtime.NumCPU(), Seed: cfg.seed,
			Seconds: int(cfg.seconds / time.Second), Runs: *runs, Date: time.Now().UTC().Format(time.RFC3339)},
		Workloads: map[string]map[string]spread{},
	}
	values := map[string]map[string][]float64{}
	var last *report
	allCorrect := true
	for run := 0; run < *runs; run++ {
		for _, name := range names {
			w, err := buildWorkload(name, cfg.seed, cfg.sizes(), cfg.clients)
			if err == nil {
				err = w.fillExpected()
			}
			var rep *report
			if err == nil {
				rep, err = runWorkload(ctx, cfg, w)
			}
			if err == nil && cfg.trace {
				var traced map[string]float64
				traced, err = traceWorkload(cfg, w)
				for k, v := range traced {
					rep.layers[k] = v
				}
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			rep.print(cfg.trace)
			allCorrect = allCorrect && rep.correct
			last = rep
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, v := range rep.e2e {
				values[name][k] = append(values[name][k], v)
			}
		}
	}
	for name, byMetric := range values {
		rec.Workloads[name] = map[string]spread{}
		for _, m := range endToEnd {
			if vs, ok := byMetric[m.name]; ok {
				rec.Workloads[name][m.name] = newSpread(m.unit, vs)
			}
		}
	}
	if *workloadFlag == "" && !cfg.quick {
		path := filepath.Join(cfg.outDir, "run.json")
		if err := rec.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("run record: %s\n", path)
		if *runs > 1 {
			rec.printSpreads()
		}
	}
	if *workloadFlag != "" {
		// A driver reads correctness off the result line, not the exit code.
		last.printResultLine(cfg.trace)
		return
	}
	if !allCorrect {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// gitCommit names the checkout's commit, or "unknown" outside a git
// repository (a driver's checkout is a plain directory).
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// layerDef is one per-layer metric's unit; the direction lives in
// BENCHMARK.json, which a test keeps in step with these names.
type layerDef struct{ name, unit string }

// perLayer lists every per-layer metric a -trace 1 run reports: first the
// /metrics deltas, then the client-side ones, then the traced replay.
func perLayer() []layerDef {
	defs := []layerDef{
		{"server.query_ms_per_op", "ms"},
		{"server.stage.parse_ms_per_op", "ms"}, {"server.stage.compile_ms_per_op", "ms"},
		{"server.stage.plan_ms_per_op", "ms"}, {"server.stage.kernel_ms_per_op", "ms"},
		{"server.stage.enumerate_ms_per_op", "ms"}, {"server.stage.stream_ms_per_op", "ms"},
		{"server.unattributed_ms_per_op", "ms"},
		{"server.accepted", "count"}, {"server.rejected", "count"}, {"server.errors", "count"},
		{"server.rows_returned", "count"}, {"server.rows_streamed", "count"},
		{"server.gc_pause_ms_per_s", "ms/s"}, {"server.heap_alloc_mb_end", "MB"},
		{"core.plan_cache_hit_ratio", "ratio"}, {"core.plan_cache_evictions", "count"},
		{"pg.states_per_op", "count"}, {"pg.edges_per_op", "count"}, {"pg.edges_per_state", "ratio"},
		{"pg.plan_frontier", "count"}, {"pg.plan_backward", "count"}, {"pg.plan_dense", "count"}, {"pg.plan_parallel", "count"},
		{"store.commits", "count"}, {"store.ops", "count"}, {"store.compactions", "count"}, {"store.delta_ops_end", "count"},
		{"http.client_overhead_ms_p50", "ms"}, {"loadgen.cpu_share", "ratio"}, {"loadgen.writer_late_p95_ms", "ms"},
		{"host.steal_share", "ratio"}, {"host.pace", "ratio"},
		{"client.wall_throughput_ops_s", "ops/s"}, {"client.wall_latency_p50_ms", "ms"},
		{"client.write_p50_ms", "ms"}, {"client.write_p95_ms", "ms"}, {"client.failed_share", "ratio"},
		{"client.latency_p95_ms", "ms"}, {"client.first_byte_p50_ms", "ms"}, {"client.rows_per_s", "rows/s"},
		{"client.server_peak_rss_mb", "MB"},
	}
	return append(defs, tracedDefs()...)
}

// clean makes a measurement printable as JSON: a percentile of no samples
// (write latency outside mixed-rw) reads 0.
func clean(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes the workload's metrics by name with units.
func (r *report) print(layers bool) {
	note := fmt.Sprintf("n=%d ops", r.samples)
	if p := highestPercentile(r.samples); p != 0 {
		note += fmt.Sprintf(", supports p%g", p)
	}
	for _, m := range endToEnd {
		v, ok := r.e2e[m.name]
		if !ok || math.IsNaN(v) {
			continue
		}
		extra := ""
		switch m.name {
		case "latency_p50_ms", "latency_p95_ms", "first_byte_p50_ms", "throughput_ops_s":
			extra = "  (" + note + ")"
		case "write_p50_ms":
			extra = fmt.Sprintf("  (n=%d commits)", r.commits)
		case "failed_share":
			extra = fmt.Sprintf("  (%d of %d attempted)", r.failed, r.attempted)
		case "setup_s":
			extra = fmt.Sprintf("  (median of %d)", r.setups)
		}
		fmt.Printf("   %-24s %14.4f %-6s%s\n", m.name, v, m.unit, extra)
	}
	if layers {
		for _, d := range perLayer() {
			fmt.Printf("   %-34s %16.4f %s\n", d.name, clean(r.layer(d.name)), d.unit)
		}
	} else {
		fmt.Printf("   %-34s %16.4f ms\n", "server.unattributed_ms_per_op", r.layers["server.unattributed_ms_per_op"])
		fmt.Printf("   %-34s %16.0f count\n", "store.compactions", r.layers["store.compactions"])
		if r.commits > 0 {
			fmt.Printf("   %-34s %16.4f ms\n", "client.write_p95_ms", r.layer("client.write_p95_ms"))
		}
		fmt.Printf("   %-34s %16.4f ratio\n", "host.steal_share", r.layers["host.steal_share"])
		fmt.Printf("   %-34s %16.4f ratio\n", "host.pace", r.layers["host.pace"])
		fmt.Printf("   %-34s %16.4f ops/s\n", "client.wall_throughput_ops_s", r.layers["client.wall_throughput_ops_s"])
	}
	for _, p := range r.problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

// layer resolves a per-layer metric, including the end-to-end metrics the
// contract's per-layer list carries under client.
func (r *report) layer(name string) float64 {
	if v, ok := r.layers[name]; ok {
		return v
	}
	return r.e2e[strings.TrimPrefix(name, "client.")]
}

// printResultLine writes the one-line JSON result a driver reads: the
// declared end-to-end metrics, or with trace on every per-layer metric.
func (r *report) printResultLine(layers bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if layers {
		for _, d := range perLayer() {
			metrics[d.name] = value{clean(r.layer(d.name)), d.unit}
		}
	} else {
		for _, m := range contractMetrics() {
			metrics[m.name] = value{clean(r.e2e[m.name]), m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printSpreads is the repeatability table of a -runs N record: per
// workload × metric the median, quartiles, and interquartile share.
func (rec *record) printSpreads() {
	fmt.Printf("spread over %d runs (interquartile distance as a share of the median, against the bound):\n", rec.Meta.Runs)
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			s, ok := rec.Workloads[name][m.name]
			if !ok {
				continue
			}
			fmt.Printf("   %-16s %-22s median %12.4f  q1 %12.4f  q3 %12.4f  iqr %5.1f%%  bound %g%%\n",
				name, m.name, s.Median, s.Q1, s.Q3, s.iqrShare()*100, m.bound*100)
		}
	}
}
