package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// countingSink counts delivered rows and discards them; a non-zero stopAt
// makes it refuse the row after that many, as a filled cursor page does.
type countingSink struct{ rows, stopAt int }

func (s *countingSink) Begin(kind string, columns []string) error { return nil }
func (s *countingSink) Row(v any) error {
	if s.stopAt > 0 && s.rows == s.stopAt {
		return ErrStopStream
	}
	s.rows++
	return nil
}

// analyzeJSON runs one analyze-mode query and returns the marshaled
// annotated plan tree.
func analyzeJSON(t *testing.T, e *Engine, query string) []byte {
	t.Helper()
	resp, err := e.Query(Request{Query: query, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Analyze == nil {
		t.Fatal("analyze-mode response has no annotated plan")
	}
	b, err := json.Marshal(resp.Analyze)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalyzeAnnotatedPlan: an analyze-mode query returns the annotated
// tree — root stamped with the planner's answer estimate next to the
// measured actual and their q-error, the kernel stage with the states
// estimate, and the sweep telemetry the kernel recorded.
func TestAnalyzeAnnotatedPlan(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	e.Parallelism = 1
	resp, err := e.Query(Request{Query: "a a*", Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	ap := resp.Analyze
	if ap == nil {
		t.Fatal("no annotated plan")
	}
	root := ap.Plan
	if root.Name != "pairs" {
		t.Fatalf("root name %q, want pairs", root.Name)
	}
	if root.Detail == "" {
		t.Fatal("root carries no plan line")
	}
	if root.Actual != int64(resp.Count()) {
		t.Fatalf("root actual %d, want count %d", root.Actual, resp.Count())
	}
	if root.Estimate <= 0 || root.QError < 1 {
		t.Fatalf("root estimate/q-error missing: est=%g q=%g", root.Estimate, root.QError)
	}
	kernel := kernelNode(root)
	if kernel == nil {
		t.Fatalf("no kernel stage in children: %+v", root.Children)
	}
	if kernel.Actual <= 0 {
		t.Fatalf("kernel stage measured no states: %+v", kernel)
	}
	if kernel.Estimate <= 0 || kernel.QError < 1 {
		t.Fatalf("kernel estimate/q-error missing: %+v", kernel)
	}
	if ap.Sweep == nil || ap.Sweep.States <= 0 || ap.Sweep.Edges <= 0 {
		t.Fatalf("sweep telemetry missing or empty: %+v", ap.Sweep)
	}
}

// TestAnalyzeDeterminism: identical query + graph + plan yields a
// byte-identical annotated plan tree across runs — under sequential and
// parallel plans, on a one-batch graph, on one whose
// sources fill several batches of the kernel's all-sources loop, and on one
// with enough batches, under a starred query, for the call to finish on the
// product's condensation (the tree must say it did). The first
// run warms the plan cache (a cold run records parse/compile/plan spans that
// warm runs skip), then repeated runs must not differ in a single byte: the
// tree carries no wall-clock and every sweep aggregate is
// scheduling-independent. Across worker counts the only byte that may move
// is the plan line's workers= token, so with the line blanked the trees
// must be identical at 1, 2 and 8 workers.
func TestAnalyzeDeterminism(t *testing.T) {
	for _, gc := range []struct {
		name, query string
		g           *graph.Graph
		condenses   bool
	}{
		{"clique-64", "a a*", gen.Clique(64, "a"), false},
		{"scalefree-300", "a b* a", gen.ScaleFree(300, 3, 7), false},
		{"scalefree-400", "a* b a", gen.ScaleFree(400, 3, 7), true},
	} {
		var acrossWorkers string
		for _, tc := range []struct {
			name        string
			parallelism int
		}{
			{"sequential", 1},
			{"parallel-2", 2},
			{"parallel-8", 8},
		} {
			t.Run(gc.name+"/"+tc.name, func(t *testing.T) {
				e := New(gc.g)
				e.Parallelism = tc.parallelism
				analyzeJSON(t, e, gc.query) // warm the plan cache
				want := analyzeJSON(t, e, gc.query)
				for run := 0; run < 5; run++ {
					if got := analyzeJSON(t, e, gc.query); string(got) != string(want) {
						t.Fatalf("run %d diverged:\n got %s\nwant %s", run, got, want)
					}
				}
				var ap AnnotatedPlan
				if err := json.Unmarshal(want, &ap); err != nil {
					t.Fatal(err)
				}
				if condensed := ap.Sweep != nil && ap.Sweep.Condensed != nil; condensed != gc.condenses {
					t.Fatalf("sweep telemetry %+v: condensed block present is %v, want %v", ap.Sweep, condensed, gc.condenses)
				}
				ap.Plan.Detail = ""
				b, err := json.Marshal(ap)
				if err != nil {
					t.Fatal(err)
				}
				if acrossWorkers == "" {
					acrossWorkers = string(b)
				} else if string(b) != acrossWorkers {
					t.Fatalf("tree depends on the worker count:\n got %s\nwant %s", b, acrossWorkers)
				}
			})
		}
	}
}

// TestAnalyzeOff: without Analyze the response carries no annotated plan
// and the meter carries no telemetry sink — the analyze-off path is the
// pre-analyze path.
func TestAnalyzeOff(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	e.Parallelism = 1
	resp, err := e.Query(Request{Query: "a a*"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Analyze != nil {
		t.Fatalf("analyze-off response has an annotated plan: %+v", resp.Analyze)
	}
}

// mispickCycle is a badly estimated sweep: on a 1000-node a-cycle the
// planner estimates "a a*" at 21 000 product states and the sweeps expand
// 1 002 000 — a q-error near 48.
func mispickCycle() (*Engine, Request) {
	e := New(gen.Cycle(1000, "a"))
	e.Parallelism = 1
	return e, Request{Query: "a a*", Analyze: true}
}

// kernelNode returns the kernel stage of an annotated tree, or nil.
func kernelNode(root PlanNode) *PlanNode {
	for i := range root.Children {
		if root.Children[i].Name == "kernel" {
			return &root.Children[i]
		}
	}
	return nil
}

// TestAnalyzeKernelQError: a badly estimated sweep shows as such in the
// tree — the kernel node carries the planner's states estimate and a
// q-error past 32 — and the root carries the q-error the server observes
// into gq_cardest_qerror.
func TestAnalyzeKernelQError(t *testing.T) {
	e, req := mispickCycle()
	resp, err := e.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelNode(resp.Analyze.Plan)
	if k == nil || k.Estimate != 21000 || k.QError < 32 {
		t.Fatalf("kernel node %+v, want estimate 21000 and q_error ≥ 32", k)
	}
	if root := resp.Analyze.Plan; root.Estimate <= 0 || root.QError < 1 {
		t.Fatalf("root estimate/q-error missing: est=%g q=%g", root.Estimate, root.QError)
	}
}

// TestAnalyzeLevelsOnPlainSweep: every sweep runs the level-synchronous
// loop, so a plain query reports per-level telemetry too.
func TestAnalyzeLevelsOnPlainSweep(t *testing.T) {
	g := gen.APath(8, "a")
	e := New(g)
	e.Parallelism = 1
	resp, err := e.Query(Request{Query: "a*", Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	sw := resp.Analyze.Sweep
	if sw == nil || len(sw.Levels) == 0 {
		t.Fatalf("a* recorded no per-level telemetry: %+v", sw)
	}
	if n := int64(g.NumNodes()); sw.Sweeps != n || sw.Levels[0].Sweeps != n {
		t.Fatalf("want one sweep per node, each expanding its seed level: %+v", sw)
	}
}

// TestAnalyzeStreaming: the streaming evaluator threads the same analyze
// telemetry, so a streamed analyze query annotates like a buffered one.
func TestAnalyzeStreaming(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	e.Parallelism = 1
	sink := &countingSink{}
	resp, err := e.QueryStream(context.Background(), Request{Query: "a a*", Analyze: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	rows := sink.rows
	if resp.Analyze == nil {
		t.Fatal("streamed analyze query has no annotated plan")
	}
	if resp.Analyze.Plan.Actual != int64(rows) {
		t.Fatalf("root actual %d, want streamed rows %d", resp.Analyze.Plan.Actual, rows)
	}
	if resp.Analyze.Sweep == nil || resp.Analyze.Sweep.States <= 0 {
		t.Fatalf("streamed analyze query recorded no sweep telemetry: %+v", resp.Analyze.Sweep)
	}
}

// TestAnalyzeEarlyStopCarriesNoEstimate: a stream the sink stops early (a
// filled cursor page) swept only part of the product, so neither its row
// count nor its state count is set against the planner's estimates: the
// root and the kernel node carry no estimate and no q-error. The full run
// of the same query carries both.
func TestAnalyzeEarlyStopCarriesNoEstimate(t *testing.T) {
	e, req := mispickCycle()

	sink := &countingSink{stopAt: 1}
	resp, err := e.QueryStream(context.Background(), req, sink)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count() != 1 || resp.Analyze == nil {
		t.Fatalf("early-stopped stream: count %d, analyze %v; want the one delivered row, annotated", resp.Count(), resp.Analyze)
	}
	root := resp.Analyze.Plan
	if root.Estimate != 0 || root.QError != 0 {
		t.Errorf("partial sweep estimated its root: est=%g q=%g", root.Estimate, root.QError)
	}
	if k := kernelNode(root); k == nil || k.Estimate != 0 || k.QError != 0 {
		t.Errorf("partial sweep's kernel node %+v, want one with no estimate", k)
	}

	resp, err = e.QueryStream(context.Background(), req, &countingSink{})
	if err != nil {
		t.Fatal(err)
	}
	root = resp.Analyze.Plan
	if root.Estimate <= 0 || root.QError < 1 {
		t.Errorf("full run's root carries no estimate: est=%g q=%g", root.Estimate, root.QError)
	}
	if k := kernelNode(root); k == nil || k.Estimate <= 0 || k.QError < 1 {
		t.Errorf("full run's kernel node %+v, want an estimate and a q-error", k)
	}
}

// TestAnalyzeWarmCondensation: the first analyzed all-pairs call that
// condenses rents batch 0 on the level loop and then builds; every later
// call on the cached plan runs all of its sources on the condensation the
// first one kept. The warm tree reports that condensation — the same
// states, components, DAG edges and largest component — with every source in
// its block, no levels, no frontier, and no build among its edges, while
// the answer, the states and the sweep count stay the cold call's.
func TestAnalyzeWarmCondensation(t *testing.T) {
	e := New(gen.ScaleFree(400, 3, 7))
	e.Parallelism = 2
	run := func() (*AnnotatedPlan, int) {
		resp, err := e.Query(Request{Query: "a* b a", Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Analyze == nil || resp.Analyze.Sweep == nil || resp.Analyze.Sweep.Condensed == nil {
			t.Fatalf("no condensed sweep telemetry: %+v", resp.Analyze)
		}
		return resp.Analyze, resp.Count()
	}
	cold, coldRows := run()
	warm, warmRows := run()
	cs, ws := cold.Sweep, warm.Sweep
	if len(cs.Levels) == 0 || cs.PeakFrontier == 0 || cs.Condensed.Sources >= cs.Sweeps {
		t.Fatalf("cold call: %+v (condensed %+v), want batch 0 on the level loop", cs, *cs.Condensed)
	}
	kept := *cs.Condensed
	kept.Sources = cs.Sweeps
	if *ws.Condensed != kept || len(ws.Levels) != 0 || ws.PeakFrontier != 0 || ws.Alpha != 0 {
		t.Fatalf("warm call: %+v (condensed %+v), want every source on the kept condensation %+v", ws, *ws.Condensed, kept)
	}
	if warmRows != coldRows || ws.Sweeps != cs.Sweeps || ws.States != cs.States || ws.Edges >= cs.Edges {
		t.Fatalf("warm call: %d rows, %d sweeps, %d states, %d edges; cold: %d, %d, %d, %d",
			warmRows, ws.Sweeps, ws.States, ws.Edges, coldRows, cs.Sweeps, cs.States, cs.Edges)
	}
	if again, _ := run(); !reflect.DeepEqual(again.Sweep, ws) {
		t.Fatalf("second warm call: %+v, first read %+v", again.Sweep, ws)
	}
}
