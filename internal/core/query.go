// Context-aware query entry points: the serving surface of the engine.
// Every method here threads one eval.Meter through all evaluation stages of
// a query, so cooperative cancellation (client disconnect, deadline) and
// per-query resource budgets (product states visited, result rows) are
// enforced query-globally — the requirement the paper's Propositions 22–24
// impose on any service boundary: evaluation cost can blow up
// combinatorially, so the serving layer must be able to stop it.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"graphquery/internal/crpq"
	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
	"graphquery/internal/relalg"
	"graphquery/internal/rpq"
	"graphquery/internal/twoway"
)

// The engine-level error taxonomy. Serving layers map these to client
// errors (bad request, unknown node), while eval.ErrCanceled and
// eval.ErrBudgetExceeded pass through untouched and map to timeout/
// overload responses.
var (
	// ErrBadQuery wraps parse and validation failures: the query text
	// itself is at fault.
	ErrBadQuery = errors.New("core: bad query")
	// ErrUnknownNode wraps references to node IDs absent from the graph.
	ErrUnknownNode = errors.New("core: unknown node")
)

func badQuery(err error) error {
	return fmt.Errorf("%w: %w", ErrBadQuery, err)
}

// classify folds evaluation errors into the taxonomy: cancellation and
// budget errors pass through, and so does a recovered panic (the engine's
// bug, not the client's); anything else an evaluator rejects (validation,
// unknown constant nodes, unbounded enumeration) is the client's query at
// fault.
func classify(err error) error {
	var panicked *pg.PanicError
	if err == nil ||
		errors.Is(err, eval.ErrCanceled) ||
		errors.Is(err, eval.ErrBudgetExceeded) ||
		errors.Is(err, ErrBadQuery) ||
		errors.Is(err, ErrUnknownNode) ||
		errors.As(err, &panicked) {
		return err
	}
	return badQuery(err)
}

// Request describes one query for QueryCtx. Zero-valued optional fields
// fall back to the engine's defaults.
type Request struct {
	// Query is the query text; its language is auto-detected (Detect)
	// unless Lang overrides it.
	Query string
	// Lang selects the language explicitly: "" or "auto" auto-detects among
	// the classic kinds; "2rpq" (two-way RPQ → pairs), "gql" (GQL pattern →
	// matches), "coregql" (CoreGQL fragment → matches), "cypher" (Cypher
	// fragment → pairs), "pmr" (path representation → paths), "spanner"
	// (document spanner over Doc → spans), "relalg" (algebra over REACH
	// atoms → relation), and "bag" (bag-semantics count → bag) force a tier.
	Lang string
	// Doc is the input document for spanner queries; ignored elsewhere.
	Doc string
	// From/To anchor path queries; both empty means endpoint-pair (RPQ) or
	// row (CRPQ) semantics.
	From, To graph.NodeID
	// Mode is the path mode for anchored queries (default All).
	Mode eval.Mode
	// MaxLen / Limit override the engine's enumeration bounds when > 0.
	MaxLen, Limit int
	// Budget overrides the engine's per-query budget field-by-field when
	// its fields are > 0.
	Budget eval.Budget
	// Trace, when set, receives the query's evaluation spans and plan
	// attribute. Serving layers supply one so span timings and the plan
	// line survive even when the query errs (timeout, exhausted budget)
	// and no Response is produced. When nil, QueryCtx makes its own.
	Trace *obs.Trace
	// Progress, when set, receives live evaluation progress — the current
	// stage plus product states, edges, rows, and frontier size — sampled
	// by the serving layer's in-flight registry while the query runs. The
	// kernel feeds it through the meter's amortized tick, so the hot loop
	// gains no new branches. When nil, nothing is recorded.
	Progress *obs.Progress
	// Analyze turns on EXPLAIN ANALYZE mode: the meter carries a sweep
	// telemetry sink the kernel records into at its existing exit and
	// barrier sites, and the Response gains an annotated plan tree with
	// per-node estimate, actual, and q-error. Off (the default) costs
	// nothing — the sink is nil and the kernel's hot loops are unchanged.
	Analyze bool
}

// Response is the union result of QueryCtx, discriminated by Kind.
type Response struct {
	// Kind names the result shape: "pairs" (rpq/2rpq/cypher), "paths"
	// (anchored rpq/ℓ-rpq/dl-rpq, pmr), "rows" (crpq), "matches" (gql,
	// coregql), "spans" (spanner), "relation" (relalg), or "bag" (bag).
	Kind  string
	Pairs [][2]graph.NodeID
	Paths []PathResult
	Rows  *crpq.Result
	// Matches holds rendered result lines for kinds "matches" and "spans".
	Matches []string
	// Rel is the result relation for kind "relation".
	Rel *relalg.Relation
	// Bag is the exact answer multiplicity total for kind "bag".
	Bag *big.Int

	// Streamed counts result rows delivered through a Sink by QueryStream;
	// streamed kinds leave their materialized result fields empty (the rows
	// already went to the consumer), so Count() falls back to this.
	Streamed int

	// StatesVisited / RowsProduced are the meter readings of this query —
	// the work it performed, for accounting and /v1/statz aggregation.
	StatesVisited int64
	RowsProduced  int64

	// Plan is the kernel plan line the planner chose ("" for query kinds
	// without a planned kernel sweep); Spans are the evaluation stages with
	// nanosecond timings and per-stage meter deltas.
	Plan  string
	Spans []obs.Span

	// Analyze is the annotated plan tree with sweep telemetry, present only
	// when the request set Analyze.
	Analyze *AnnotatedPlan `json:"analyze,omitempty"`

	// G is the graph snapshot this query evaluated against. Serving layers
	// must render internal indexes (paths, row values) against it, not
	// against the engine's current graph, which may have advanced under a
	// live store while the query ran. GraphRev is that snapshot's revision,
	// stamped into query records so slow queries and crossval reruns can be
	// pinned to the exact store state they saw.
	G        *graph.Graph
	GraphRev uint64
}

// Count returns the number of results regardless of kind. For responses
// whose rows were streamed through a Sink the materialized fields are
// empty and the streamed-row count is the answer.
func (r *Response) Count() int {
	if r.Streamed > 0 {
		return r.Streamed
	}
	switch r.Kind {
	case "pairs":
		return len(r.Pairs)
	case "paths":
		return len(r.Paths)
	case "rows":
		if r.Rows != nil {
			return len(r.Rows.Rows)
		}
	case "matches", "spans":
		return len(r.Matches)
	case "relation":
		if r.Rel != nil {
			return r.Rel.Len()
		}
	case "bag":
		if r.Bag != nil {
			return 1 // one aggregate answer
		}
	}
	return 0
}

// QueryCtx evaluates one request under ctx: the single entry point of the
// query service. Cancellation and budget violations surface as
// eval.ErrCanceled / eval.ErrBudgetExceeded; malformed queries as
// ErrBadQuery; unknown endpoints as ErrUnknownNode. It is QueryStream with
// no sink: the typed result fields of the Response are filled instead.
func (e *Engine) QueryCtx(ctx context.Context, req Request) (*Response, error) {
	return e.QueryStream(ctx, req, nil)
}

// Query is QueryCtx without a context, for callers that want the unified
// request surface but no cancellation.
func (e *Engine) Query(req Request) (*Response, error) {
	return e.QueryCtx(context.Background(), req)
}

// dispatch is the one place a request's kind selects its evaluator. Each
// evaluator fills its typed Response field; with a sink, the result then
// leaves through it (streamRendered) and the fields are cleared. The pair
// producers are the exception: they hold node index pairs, not typed rows,
// and deliver those themselves — plannedPairs straight out of the kernel
// fan-out while later sweeps are still running, twoWayPairs once its sweep
// has finished. Kind "bag" has one aggregate value and never touches the
// sink.
func (e *Engine) dispatch(gs *graphState, req Request, m *eval.Meter, tr *obs.Trace, maxLen, limit int, sink BatchSink) (*Response, error) {
	anchored := req.From != "" || req.To != ""
	kind := Detect(req.Query)
	if req.Lang != "" && req.Lang != "auto" {
		var ok bool
		if kind, ok = KindForLang(req.Lang); !ok {
			return nil, badQuery(fmt.Errorf("core: unknown lang %q", req.Lang))
		}
		// Per-kind request schemas: only path-producing kinds accept from/to
		// anchors; pmr requires them.
		if anchored && kind != KindPMR {
			return nil, badQuery(fmt.Errorf("core: lang %q queries do not take from/to anchors", req.Lang))
		}
	}
	var resp *Response
	var err error
	switch kind {
	case KindTwoWay:
		return e.twoWayPairs(gs, req.Query, m, tr, sink)
	case KindGQL:
		resp = &Response{Kind: "matches"}
		resp.Matches, err = e.gqlMatchesMeter(gs, req.Query, m, tr, maxLen, limit)
	case KindCoreGQL:
		resp = &Response{Kind: "matches"}
		resp.Matches, err = e.coreGQLMatchesMeter(gs, req.Query, m, tr, maxLen, limit)
	case KindCypher:
		return e.plannedPairs(gs, req.Query, "cypher", e.compileCypher(gs, tr), m, tr, sink)
	case KindPMR:
		if req.From == "" || req.To == "" {
			return nil, badQuery(errors.New("core: pmr queries need both from and to"))
		}
		resp = &Response{Kind: "paths"}
		resp.Paths, err = e.pmrPathsMeter(gs, req.Query, req.From, req.To, req.Mode == eval.Shortest, m, tr, limit)
	case KindSpanner:
		resp = &Response{Kind: "spans"}
		resp.Matches, err = e.spannerMeter(gs, req.Doc, req.Query, m, tr, limit)
	case KindRelAlg:
		resp = &Response{Kind: "relation"}
		resp.Rel, err = e.relalgMeter(gs, req.Query, m, tr)
	case KindBag:
		resp = &Response{Kind: "bag"}
		resp.Bag, err = e.bagMeter(gs, req.Query, m, tr)
	case KindCRPQ:
		if anchored {
			return nil, badQuery(errors.New("core: CRPQ queries return rows; do not anchor them with from/to"))
		}
		resp = &Response{Kind: "rows"}
		resp.Rows, err = e.rowsMeter(gs, req.Query, m, tr, maxLen)
	default: // KindRPQ, KindDLRPQ
		if !anchored {
			if kind == KindDLRPQ {
				return nil, badQuery(errors.New("core: dl-RPQ queries need from and to endpoints"))
			}
			return e.plannedPairs(gs, req.Query, "rpq", e.compileRPQ(gs, tr), m, tr, sink)
		}
		if req.From == "" || req.To == "" {
			return nil, badQuery(errors.New("core: path queries need both from and to"))
		}
		resp = &Response{Kind: "paths"}
		resp.Paths, err = e.pathsMeter(gs, req.Query, req.From, req.To, req.Mode, m, tr, maxLen, limit)
	}
	if err != nil {
		return nil, err
	}
	if sink != nil && resp.Kind != "bag" {
		if err := streamRendered(gs.g, resp, sink, tr); err != nil && !errors.Is(err, ErrStopStream) {
			return nil, err
		}
	}
	return resp, nil
}

// appendPairIDs renders a sweep batch's runs to ID pairs against g: the
// typed result of the pair kinds for a caller with no sink.
func appendPairIDs(dst [][2]graph.NodeID, g *graph.Graph, part pg.Runs) [][2]graph.NodeID {
	dst = slices.Grow(dst, part.Len())
	for i, u := range part.Src {
		src := g.NodeID(int(u))
		for _, v := range part.Targets(i) {
			dst = append(dst, [2]graph.NodeID{src, g.NodeID(int(v))})
		}
	}
	return dst
}

// plannedPairs evaluates the endpoint-pair kinds that run on a planned
// kernel sweep — plain RPQs (family "rpq") and the Cypher fragment
// ("cypher"); family is the plan-cache namespace, compile its build
// function, and both produce the same rpqPlan — and delivers them as
// sweptPairs does.
func (e *Engine) plannedPairs(gs *graphState, query, family string, compile func(string) (rpqPlan, error), m *eval.Meter, tr *obs.Trace, sink BatchSink) (*Response, error) {
	plan, err := cached(e, gs, family, query, compile)
	if err != nil {
		return nil, badQuery(err)
	}
	tr.Set("plan", plan.plan.String())
	resp, whole, err := sweptPairs(gs.g, m, tr, sink, func(emit func(pg.Runs) error) error {
		return eval.PairsProductEmit(plan.product,
			eval.Options{Parallelism: e.Parallelism, Meter: m, Plan: plan.plan}, emit)
	})
	if whole {
		noteKernelActuals(gs, tr, plan, m.SweepStatsSink())
	}
	return resp, err
}

// sweptPairs is the delivery of every kind whose result is the pairs of one
// all-sources sweep. Runs leave the fan-out in result order while sweeps are
// still running, a batch of node indexes at a time: rendered to IDs and
// appended to Response.Pairs without a sink, handed to the sink as they are
// with one (it quotes the IDs against the query's snapshot as it encodes) —
// where memory per query is O(fan-out window), not O(result), and a blocked
// sink throttles the worker pool. Delivery runs inside the kernel span's
// interval but is not kernel time: the span is recorded without it, and
// the delivery's own stages after it. whole reports that the sweep ran to
// its end; when a sink stopped it early (a cursor page filled) the response
// is good but the sweep's counts describe a part of it.
func sweptPairs(g *graph.Graph, m *eval.Meter, tr *obs.Trace, sink BatchSink, sweep func(emit func(pg.Runs) error) error) (resp *Response, whole bool, err error) {
	resp = &Response{Kind: "pairs"}
	emit := func(part pg.Runs) error {
		resp.Pairs = appendPairIDs(resp.Pairs, g, part)
		return nil
	}
	d := delivery{out: sink}
	if sink != nil {
		if err := sink.Begin("pairs", nil); err != nil {
			if errors.Is(err, ErrStopStream) {
				return resp, false, nil
			}
			return nil, false, err
		}
		emit = func(part pg.Runs) error { return d.send(pairBatch(g, part)) }
	}
	s0, r0 := m.States(), m.Rows()
	sp := tr.Start("kernel")
	err = sweep(emit)
	sp.Counts(m.States()-s0, m.Rows()-r0).Exclude(d.encode + d.wait).End()
	d.record(tr)
	resp.Streamed = d.rows
	if errors.Is(err, ErrStopStream) {
		// The sink has all it wants: the sweep is partial, so its counts
		// must not be set against the plan's estimates.
		return resp, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return resp, true, nil
}

// rowsMeter evaluates a CRPQ on its compiled plan (crpq.Plan), cached per
// (revision, query) like an RPQ's product, so parse and compile spans
// appear only on plan-cache misses. Inside the kernel fragment the atom
// sweeps are the "kernel" stage and the join, projection and ordering the
// "enumerate" stage; a query outside it runs the reference evaluator
// whole, under "kernel".
func (e *Engine) rowsMeter(gs *graphState, query string, m *eval.Meter, tr *obs.Trace, maxLen int) (*crpq.Result, error) {
	plan, err := cached(e, gs, "crpq", query, func(text string) (*crpq.Plan, error) {
		sp := tr.Start("parse")
		q, err := crpq.Parse(text)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tr.Start("compile")
		defer sp.End()
		return crpq.Compile(gs.g, q, &e.counters)
	})
	if err != nil {
		return nil, badQuery(err)
	}
	opts := crpq.Options{AtomMaxLen: maxLen, Parallelism: e.Parallelism, Meter: m}
	s0, r0 := m.States(), m.Rows()
	sp := tr.Start("kernel")
	if !plan.OnKernel() {
		defer func() { sp.Counts(m.States()-s0, m.Rows()-r0).End() }()
		return plan.Eval(opts)
	}
	swept, err := plan.Sweep(opts)
	sp.Counts(m.States()-s0, m.Rows()-r0).End()
	if err != nil {
		return nil, err
	}
	r0 = m.Rows()
	sp = tr.Start("enumerate")
	defer func() { sp.Counts(0, m.Rows()-r0).End() }()
	return swept.Join()
}

// pathsMeter evaluates an anchored (ℓ-)RPQ or dl-RPQ to paths. An ℓ-RPQ runs
// on its compiled plan (lrpq.Plan: annotated automaton and product kernel),
// cached per (revision, query) like an RPQ's product, so parse and
// compile spans appear only on plan-cache misses. In shortest mode the
// search between the anchors is the "kernel" stage and the walk over the
// shortest-path DAG, with path building, the "enumerate" stage; the plan
// attribute records the depths at which the two sides met. The other modes
// and dl-RPQs interleave search and path reconstruction, so one "enumerate"
// span covers their evaluation; the meter deltas still report the product
// states it expanded.
func (e *Engine) pathsMeter(gs *graphState, query string, src, dst graph.NodeID, mode eval.Mode, m *eval.Meter, tr *obs.Trace, maxLen, limit int) ([]PathResult, error) {
	u, ok := gs.g.NodeIndex(src)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, src)
	}
	v, ok := gs.g.NodeIndex(dst)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, dst)
	}
	enumerate := func(eval func() ([]gpath.PathBinding, error)) ([]PathResult, error) {
		s0, r0 := m.States(), m.Rows()
		sp := tr.Start("enumerate")
		pbs, err := eval()
		sp.Counts(m.States()-s0, m.Rows()-r0).End()
		if err != nil {
			return nil, err
		}
		return toResults(pbs), nil
	}
	switch Detect(query) {
	case KindCRPQ:
		return nil, badQuery(errors.New("core: CRPQ queries return rows; use Rows"))
	case KindDLRPQ:
		sp := tr.Start("parse")
		expr, err := cached(e, gs, "dlrpq", query, func(text string) (dlrpq.Expr, error) {
			expr, err := dlrpq.Parse(text)
			if err == nil {
				err = rpq.CheckPositions(expr)
			}
			return expr, err
		})
		sp.End()
		if err != nil {
			return nil, badQuery(err)
		}
		return enumerate(func() ([]gpath.PathBinding, error) {
			return dlrpq.EvalBetween(gs.g, expr, u, v, mode,
				dlrpq.Options{MaxLen: maxLen, Limit: limit, Meter: m, Counters: &e.counters})
		})
	}
	plan, err := cached(e, gs, "lrpq", query, func(text string) (*lrpq.Plan, error) {
		sp := tr.Start("parse")
		expr, err := lrpq.Parse(text)
		sp.End()
		if err == nil {
			err = rpq.CheckPositions(expr)
		}
		if err != nil {
			return nil, err
		}
		sp = tr.Start("compile")
		defer sp.End()
		return lrpq.NewPlan(gs.g, expr, &e.counters), nil
	})
	if err != nil {
		return nil, badQuery(err)
	}
	if mode != eval.Shortest {
		return enumerate(func() ([]gpath.PathBinding, error) {
			return plan.Between(u, v, mode, lrpq.Options{MaxLen: maxLen, Limit: limit, Meter: m})
		})
	}
	s0 := m.States()
	sp := tr.Start("kernel")
	meet, err := plan.Search(u, v, m)
	sp.Counts(m.States()-s0, 0).End()
	if err != nil {
		return nil, err
	}
	tr.Set("plan", fmt.Sprintf("between fwd=%d bwd=%d", meet.Fwd, meet.Bwd))
	return enumerate(func() ([]gpath.PathBinding, error) { return plan.Shortest(meet, limit, m) })
}

// twoWayPairs evaluates a 2RPQ to endpoint pairs on its compiled kernel,
// swept from every node, and delivers them as sweptPairs does.
func (e *Engine) twoWayPairs(gs *graphState, query string, m *eval.Meter, tr *obs.Trace, sink BatchSink) (*Response, error) {
	// The compiled kernel is cached per (revision, query), like an RPQ's
	// product: parse and compile spans appear only on plan-cache misses.
	kern, err := cached(e, gs, "2rpq", query, func(q string) (*pg.Kernel, error) {
		sp := tr.Start("parse")
		expr, err := twoway.Parse(q)
		sp.End()
		if err == nil {
			err = rpq.CheckPositions(expr)
		}
		if err != nil {
			return nil, err
		}
		sp = tr.Start("compile")
		defer sp.End()
		return twoway.Kernel(gs.g, expr, &e.counters), nil
	})
	if err != nil {
		return nil, badQuery(err)
	}
	resp, _, err := sweptPairs(gs.g, m, tr, sink, func(emit func(pg.Runs) error) error {
		return kern.SweepAll(pg.Workers(e.Parallelism), m, true, emit)
	})
	return resp, err
}
