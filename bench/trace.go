package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graphquery/internal/automata"
	"graphquery/internal/core"
	"graphquery/internal/crpq"
	"graphquery/internal/cypherfrag"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	pgplan "graphquery/internal/pg/plan"
	"graphquery/internal/rpq"
	"graphquery/internal/server"
	"graphquery/internal/twoway"
)

// The traced run replays a workload's ops in-process on one goroutine, no
// daemon: each op once whole through the server's handler, once through
// the engine, and once decomposed into calls to each layer's public
// functions. Every call is a span; the three executions of one op are
// linked parent to child as the served request would nest them, so a
// layer's self time is its span minus its children.
const (
	traceOps  = 64 // distinct ops replayed per workload
	traceReps = 5  // timed repetitions; one more pass before them samples allocations
	// materializeOps is the delta depth graph.Materialize is timed at: the
	// store's default compaction threshold.
	materializeOps = 4096
)

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the span that would have caused this one inside a served request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Rep    int    `json:"rep"` // 0 is the allocation pass: its times are not used
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// InWhole marks a leaf the whole op also executed (a warm op skips
	// parse, compile and plan); only those count toward the layer sum.
	InWhole bool `json:"in_whole,omitempty"`
	// Count is the span's unit of work: response bytes for server.handle,
	// product states for pg.sweep, automaton states for rpq.compile.
	Count int64 `json:"count,omitempty"`
	Alloc int64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

type tracer struct {
	t0     time.Time
	spans  []span
	allocs bool // sample runtime.MemStats around each span
}

// do times f as a span and returns the span's ID. f returns the span's
// count.
func (tr *tracer) do(parent, opID, rep int, name string, inWhole bool, f func() int64) int {
	var m0, m1 runtime.MemStats
	if tr.allocs {
		runtime.ReadMemStats(&m0)
	}
	sp := span{ID: len(tr.spans) + 1, Parent: parent, Op: opID, Rep: rep, Name: name, InWhole: inWhole}
	sp.Start = int64(time.Since(tr.t0))
	sp.Count = f()
	sp.End = int64(time.Since(tr.t0))
	if tr.allocs {
		runtime.ReadMemStats(&m1)
		sp.Alloc = int64(m1.TotalAlloc - m0.TotalAlloc)
	}
	tr.spans = append(tr.spans, sp)
	return sp.ID
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range tr.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// discard is the ResponseWriter the whole-op replay serves into.
type discard struct {
	header http.Header
	status int
	bytes  int64
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Flush()              {}
func (d *discard) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return len(p), nil
}

type discardSink struct{}

func (discardSink) Begin(string, []string) error { return nil }
func (discardSink) Row(any) error                { return nil }

// traceWorkload runs the traced replay of w and returns its per-layer
// metrics; the spans go to <outDir>/trace-<workload>.jsonl.
func traceWorkload(cfg config, w *workload) (map[string]float64, error) {
	scfg := daemonConfig()
	scfg.Parallelism = 1 // one goroutine: allocation deltas belong to the span
	srv := server.New(scfg)
	defer srv.Close()
	h := srv.Handler()
	tr := &tracer{t0: time.Now()}

	serve := func(method, path string, body []byte, stream bool) (*discard, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if stream {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		d := &discard{header: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(d, req)
		if d.status >= 300 {
			return d, fmt.Errorf("trace: %s %s: status %d", method, path, d.status)
		}
		return d, nil
	}

	// Set-up layer: parse each upload once by hand, then load it through the
	// handler as the daemon would.
	var private *graph.Graph // a copy of graphs[0] the mutation spans may extend
	for i, bg := range w.graphs {
		var lr server.LoadRequest
		if err := json.Unmarshal(bg.load, &lr); err != nil {
			return nil, err
		}
		for rep := 0; rep <= traceReps; rep++ {
			tr.allocs = rep == 0
			var err error
			tr.do(0, -1, rep, "graph.readjson", false, func() int64 {
				var g *graph.Graph
				if g, err = graph.ReadJSON(bytes.NewReader(lr.Graph)); err == nil && i == 0 {
					private = g
				}
				return int64(len(lr.Graph))
			})
			if err != nil {
				return nil, err
			}
		}
		if _, err := serve(http.MethodPost, "/v1/graphs", bg.load, false); err != nil {
			return nil, err
		}
	}

	var wr *writer
	if w.writes {
		wr = newWriter(nil, w.graphs[0], cfg.seed)
	}
	batches := 0
	// mutate commits the writer's next batch to the served graph, so the op
	// that follows runs against a new revision with cold plans.
	mutate := func(rep int) error {
		_, muts := wr.nextBatch(batches)
		batches++
		hd, _ := srv.Store().Get(w.graphs[0].name)
		var err error
		tr.do(0, -1, rep, "store.mutate", false, func() int64 {
			_, err = hd.Mutate(muts, 0)
			return int64(len(muts))
		})
		// A commit past the threshold starts the background compactor; wait
		// for it, so the op that follows has the goroutine to itself and
		// the delta stays as shallow as the daemon keeps it.
		srv.Store().Close()
		return err
	}

	ops := w.ops
	if len(ops) > traceOps {
		ops = ops[:traceOps]
	}
	var tracedNS, bareNS float64
	for rep := 0; rep <= traceReps; rep++ {
		tr.allocs = rep == 0
		for _, o := range ops {
			cold := w.writes
			eng := srv.Engine(o.req.Graph)
			var err error
			whole := func() int64 {
				var d *discard
				d, err = serve(http.MethodPost, "/v1/query", o.body, o.stream)
				return d.bytes
			}
			if cold {
				if err := mutate(rep); err != nil {
					return nil, err
				}
			}
			root := tr.do(0, o.id, rep, "server.handle", true, whole)
			if err != nil {
				return nil, err
			}
			if rep > 0 {
				tracedNS += tr.spans[root-1].dur()
				if cold {
					if err := mutate(rep); err != nil {
						return nil, err
					}
				}
				start := time.Now()
				whole()
				bareNS += float64(time.Since(start))
				if err != nil {
					return nil, err
				}
			}

			if cold {
				if err := mutate(rep); err != nil {
					return nil, err
				}
			}
			mode := eval.All
			if o.req.Mode != "" {
				if mode, err = eval.ParseMode(o.req.Mode); err != nil {
					return nil, err
				}
			}
			creq := core.Request{Query: o.req.Query, Lang: o.req.Lang, From: graph.NodeID(o.req.From),
				To: graph.NodeID(o.req.To), Mode: mode, Limit: o.req.Limit}
			// A context that can end, as a served request's can: the engine
			// then meters the query exactly as it does behind the handler.
			ctx, cancel := context.WithCancel(context.Background())
			parent := tr.do(root, o.id, rep, "core.query", true, func() int64 {
				var resp *core.Response
				if o.stream {
					resp, err = eng.QueryStream(ctx, creq, discardSink{})
				} else {
					resp, err = eng.QueryCtx(ctx, creq)
				}
				if err != nil {
					return 0
				}
				return int64(resp.Count())
			})
			if err == nil {
				err = traceLeaves(ctx, tr, parent, rep, o, eng.Graph(), cold)
			}
			cancel()
			if err != nil {
				return nil, fmt.Errorf("trace: %s: %w", o, err)
			}
		}
	}

	// Planner statistics are collected once per graph revision; a warm
	// workload pays them once per graph, a written one once per cold RPQ.
	if !w.writes {
		for _, bg := range w.graphs {
			for rep := 0; rep <= traceReps; rep++ {
				tr.allocs = rep == 0
				tr.do(0, -1, rep, "plan.collect", false, func() int64 {
					pgplan.New(bg.g)
					return int64(bg.g.NumEdges())
				})
			}
		}
	}
	if w.writes {
		if err := traceMutations(tr, newWriter(nil, w.graphs[0], cfg.seed), private); err != nil {
			return nil, err
		}
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	m := tr.metrics()
	m["trace.overhead_ratio"] = ratio(tracedNS, bareNS)
	return m, nil
}

// traceLeaves replays o as direct calls into each layer, in the order the
// engine makes them. cold says the whole op ran against fresh plans, so
// parse, compile and plan count toward the layer sum too.
func traceLeaves(ctx context.Context, tr *tracer, parent, rep int, o *op, g *graph.Graph, cold bool) error {
	var err error
	leaf := func(name string, inWhole bool, f func() int64) {
		if err == nil {
			tr.do(parent, o.id, rep, name, inWhole, f)
		}
	}
	req := o.req
	sweep := func(nfa *automata.NFA) {
		var product *eval.Product
		leaf("eval.product", cold, func() int64 {
			product = eval.NewProductInstrumented(g, nfa, nil)
			return int64(product.NumStates())
		})
		var planner *pgplan.Planner
		if cold {
			leaf("plan.collect", true, func() int64 {
				planner = pgplan.New(g)
				return int64(g.NumEdges())
			})
		} else {
			planner = pgplan.New(g) // timed once per graph by the caller
		}
		plan := planner.ForNFA(nfa, 1, 0)
		leaf("plan.fornfa", cold, func() int64 {
			plan = planner.ForNFA(nfa, 1, 0)
			return 0
		})
		leaf("pg.sweep", true, func() int64 {
			m := eval.NewMeter(ctx, eval.Budget{})
			_, err = eval.PairsProductCtx(ctx, product, eval.Options{Parallelism: 1, Meter: m, Plan: plan})
			return m.States()
		})
	}
	switch {
	case req.From != "" || req.To != "":
		var e lrpq.Expr
		leaf("lrpq.parse", cold, func() int64 {
			e, err = lrpq.Parse(req.Query)
			return 0
		})
		mode, merr := eval.ParseMode(req.Mode)
		if merr != nil {
			return merr
		}
		u, _ := g.NodeIndex(graph.NodeID(req.From))
		v, _ := g.NodeIndex(graph.NodeID(req.To))
		leaf("lrpq.between", true, func() int64 {
			m := eval.NewMeter(ctx, eval.Budget{})
			_, err = lrpq.EvalBetween(g, e, u, v, mode, lrpq.Options{MaxLen: engineMaxLen, Limit: req.Limit, Meter: m})
			return m.States()
		})
	case req.Lang == "cypher":
		var expr rpq.Expr
		leaf("rpq.parse", cold, func() int64 {
			var p cypherfrag.Pattern
			if p, err = cypherfrag.Parse(req.Query); err == nil {
				expr = cypherfrag.Compile(p)
			}
			return 0
		})
		var nfa *automata.NFA
		leaf("rpq.compile", cold, func() int64 {
			nfa = rpq.Compile(expr)
			return int64(nfa.NumStates)
		})
		sweep(nfa)
	case req.Lang == "2rpq":
		var e twoway.Expr
		leaf("twoway.parse", cold, func() int64 {
			e, err = twoway.Parse(req.Query)
			return 0
		})
		leaf("pg.sweep", true, func() int64 {
			m := eval.NewMeter(ctx, eval.Budget{})
			_, err = twoway.PairsMeterOpt(g, e, m, twoway.Options{Parallelism: 1})
			return m.States()
		})
	case core.Detect(req.Query) == core.KindCRPQ:
		var q *crpq.Query
		leaf("crpq.parse", cold, func() int64 {
			q, err = crpq.Parse(req.Query)
			return 0
		})
		leaf("crpq.eval", true, func() int64 {
			m := eval.NewMeter(ctx, eval.Budget{})
			_, err = crpq.EvalCtx(ctx, g, q, crpq.Options{AtomMaxLen: engineMaxLen, Parallelism: 1, Meter: m})
			return m.States()
		})
	default:
		var expr rpq.Expr
		leaf("rpq.parse", cold, func() int64 {
			expr, err = rpq.Parse(req.Query)
			return 0
		})
		var nfa *automata.NFA
		leaf("rpq.compile", cold, func() int64 {
			nfa = rpq.Compile(expr)
			return int64(nfa.NumStates)
		})
		sweep(nfa)
	}
	return err
}

// traceMutations times the write path's layers on a private copy of the
// graph: graph.Apply per batch up to the compaction threshold, then the
// graph.Materialize a compaction would run.
func traceMutations(tr *tracer, wr *writer, g *graph.Graph) error {
	for rep := 0; rep <= 1; rep++ {
		tr.allocs = rep == 0
		cur := g
		for k := 0; cur.DeltaOps() < materializeOps; k++ {
			_, muts := wr.nextBatch(k)
			var err error
			tr.do(0, -1, rep, "graph.apply", false, func() int64 {
				cur, err = cur.Apply(muts)
				return int64(len(muts))
			})
			if err != nil {
				return err
			}
		}
		var err error
		tr.do(0, -1, rep, "graph.materialize", false, func() int64 {
			// The folded graph replaces g, so the second pass extends a
			// fresh chain and not one whose arrays the first already grew.
			g, err = cur.Materialize()
			return int64(cur.DeltaOps())
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedLayers maps span names to the per-layer time metric each feeds,
// with the divisor from nanoseconds.
var tracedLayers = []struct {
	span, metric string
	div          float64
}{
	{"rpq.parse", "rpq.parse_us", 1e3},
	{"rpq.compile", "rpq.compile_us", 1e3},
	{"eval.product", "eval.product_us", 1e3},
	{"plan.collect", "plan.collect_ms", 1e6},
	{"plan.fornfa", "plan.fornfa_us", 1e3},
	{"pg.sweep", "pg.sweep_ms", 1e6},
	{"crpq.parse", "crpq.parse_us", 1e3},
	{"crpq.eval", "crpq.eval_ms", 1e6},
	{"lrpq.between", "lrpq.between_ms", 1e6},
	{"core.query", "core.query_ms", 1e6},
	{"server.handle", "server.handle_ms", 1e6},
	{"graph.apply", "graph.apply_us", 1e3},
	{"store.mutate", "store.mutate_us", 1e3},
	{"graph.materialize", "graph.materialize_ms", 1e6},
	{"graph.readjson", "graph.readjson_ms", 1e6},
}

// metrics reduces the spans to the traced per-layer metrics: the median
// time per call of each layer, the mean allocation per call from the
// allocation pass, self times, and the reconciliation ratio.
func (tr *tracer) metrics() map[string]float64 {
	times := map[string][]float64{}
	allocs := map[string][]float64{}
	var nfaStates []float64
	var sweepStates, sweepNS float64
	// Per op and repetition: the whole op, the engine call, and the leaves
	// the whole op also ran.
	type key struct{ op, rep int }
	whole, engine, leaves := map[key]float64{}, map[key]float64{}, map[key]float64{}
	bytesOut := map[key]float64{}
	for _, sp := range tr.spans {
		if sp.Rep == 0 {
			allocs[sp.Name] = append(allocs[sp.Name], float64(sp.Alloc))
			continue
		}
		times[sp.Name] = append(times[sp.Name], sp.dur())
		k := key{sp.Op, sp.Rep}
		switch sp.Name {
		case "server.handle":
			whole[k] = sp.dur()
			bytesOut[k] = float64(sp.Count)
		case "core.query":
			engine[k] = sp.dur()
		case "rpq.compile":
			nfaStates = append(nfaStates, float64(sp.Count))
		case "pg.sweep":
			sweepStates += float64(sp.Count)
			sweepNS += sp.dur()
		}
		if sp.Parent != 0 && sp.Name != "core.query" && sp.InWhole {
			leaves[k] += sp.dur()
		}
	}
	m := map[string]float64{}
	for _, l := range tracedLayers {
		m[l.metric] = median(times[l.span]) / l.div
		m[l.span+"_alloc_kb"] = mean(allocs[l.span]) / 1024
		if len(times[l.span]) == 0 {
			m[l.metric], m[l.span+"_alloc_kb"] = 0, 0
		}
	}
	m["automata.nfa_states"] = 0
	if len(nfaStates) > 0 {
		m["automata.nfa_states"] = mean(nfaStates)
	}
	m["pg.states_per_s"] = ratio(sweepStates, sweepNS/1e9)

	var serverSelf, coreSelf []float64
	var wholeNS, leafNS, selfNS, outBytes float64
	for k, wns := range whole {
		serverSelf = append(serverSelf, wns-engine[k])
		coreSelf = append(coreSelf, engine[k]-leaves[k])
		wholeNS += wns
		leafNS += leaves[k]
		selfNS += wns - engine[k]
		outBytes += bytesOut[k]
	}
	m["server.self_ms"] = median(serverSelf) / 1e6
	m["core.self_ms"] = median(coreSelf) / 1e6
	// Response bytes over the server's self time: render, encode and write
	// are not separately callable, so this is their combined rate.
	m["server.encode_mb_per_s"] = ratio(outBytes/1e6, selfNS/1e9)
	m["trace.layer_sum_over_whole"] = ratio(leafNS, wholeNS)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedDefs lists every metric traceWorkload reports with its unit,
// sorted by name.
func tracedDefs() []layerDef {
	defs := []layerDef{
		{"automata.nfa_states", "count"}, {"pg.states_per_s", "1/s"},
		{"server.self_ms", "ms"}, {"core.self_ms", "ms"}, {"server.encode_mb_per_s", "MB/s"},
		{"trace.layer_sum_over_whole", "ratio"}, {"trace.overhead_ratio", "ratio"},
	}
	for _, l := range tracedLayers {
		unit := "ms"
		if l.div == 1e3 {
			unit = "us"
		}
		defs = append(defs, layerDef{l.metric, unit}, layerDef{l.span + "_alloc_kb", "kB"})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs
}
