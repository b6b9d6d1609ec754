// Context-aware query entry points: the serving surface of the engine.
// Every method here threads one pg.Meter through all evaluation stages of
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

	"graphquery/internal/automata"
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
// errors (bad request, unknown node), while pg.ErrCanceled and
// pg.ErrBudgetExceeded pass through untouched and map to timeout/
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
		errors.Is(err, pg.ErrCanceled) ||
		errors.Is(err, pg.ErrBudgetExceeded) ||
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
	// Lang names the row of the table of served kinds (kinds.go) that
	// serves the query: "" or "auto" detects one of the classic kinds in the
	// text; anything else must be a row's lang.
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
	Budget pg.Budget
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
	// Kind is the result kind of the row that served the query (kinds.go);
	// it names the one result field below that is filled.
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

// Count returns the number of results regardless of kind: the rows
// streamed through a Sink, or else those of the one typed field filled (a
// bag is one aggregate answer).
func (r *Response) Count() int {
	if r.Streamed > 0 {
		return r.Streamed
	}
	n := len(r.Pairs) + len(r.Paths) + len(r.Matches)
	if r.Rows != nil {
		n += len(r.Rows.Rows)
	}
	if r.Rel != nil {
		n += r.Rel.Len()
	}
	if r.Bag != nil {
		n++
	}
	return n
}

// QueryCtx evaluates one request under ctx: the single entry point of the
// query service. Cancellation and budget violations surface as
// pg.ErrCanceled / pg.ErrBudgetExceeded; malformed queries as
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

// run is one request being served: what every row's reader and evaluator
// is handed.
type run struct {
	e             *Engine
	gs            *graphState // the snapshot the whole query runs on
	req           Request
	m             *pg.Meter
	tr            *obs.Trace
	maxLen, limit int      // the request's bounds, engine defaults applied
	anchored      bool     // the request asks for paths between from and to
	u, v          int      // from and to as node indexes, once resolveAnchors ran
	result        string   // the Kind of the Response, set from the row serving the request
	d             delivery // to the query's sink; d.out is nil without one
}

// resolveAnchors looks up an anchored request's from and to.
func (x *run) resolveAnchors() error {
	if !x.anchored {
		return nil
	}
	var ok bool
	if x.u, ok = x.gs.g.NodeIndex(x.req.From); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, x.req.From)
	}
	if x.v, ok = x.gs.g.NodeIndex(x.req.To); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, x.req.To)
	}
	return nil
}

// stage runs f as the named stage of x — parse, compile, plan, kernel or
// enumerate — and is the one place core opens a span: it records the
// states and rows the meter took across f, and leaves out of the span's
// time what the sink spent on rows meanwhile, which the delivery records as
// its own stages.
func stage[T any](x *run, name string, f func() (T, error)) (T, error) {
	s0, r0, d0 := x.m.States(), x.m.Rows(), x.d.encode+x.d.wait
	sp := x.tr.Start(name)
	v, err := f()
	sp.Counts(x.m.States()-s0, x.m.Rows()-r0).Exclude(x.d.encode + x.d.wait - d0).End()
	return v, err
}

// reader makes parse a row's reader: the "parse" stage.
func reader[P any](parse func(string) (P, error)) func(*run, string) (P, error) {
	return func(x *run, text string) (P, error) {
		return stage(x, "parse", func() (P, error) { return parse(text) })
	}
}

// bounded is the parse of a dialect whose text is one regular expression
// (whose nesting bound is rpq.Read's) with the position bound.
func bounded[L automata.Language](parse func(string) (automata.Expr[L], error)) func(string) (automata.Expr[L], error) {
	return func(text string) (automata.Expr[L], error) {
		expr, err := parse(text)
		if err == nil {
			err = rpq.CheckPositions(expr)
		}
		return expr, err
	}
}

// sweptPairs is the delivery of every kind whose result is the pairs of one
// all-sources sweep. Runs leave the fan-out in result order while sweeps are
// still running, a batch of node indexes at a time: rendered to IDs and
// appended to Response.Pairs without a sink, handed to the sink as they are
// with one (it quotes the IDs against the query's snapshot as it encodes) —
// where memory per query is O(fan-out window), not O(result), and a blocked
// sink throttles the worker pool. Delivery runs inside the kernel stage but
// is not kernel time (stage). whole reports that the sweep ran to its end;
// when a sink stopped it early (a cursor page filled) the response is good
// but the sweep's counts describe a part of it.
func (x *run) sweptPairs(sweep func(emit func(pg.Runs) error) error) (resp *Response, whole bool, err error) {
	resp = &Response{}
	g := x.gs.g
	emit := func(part pg.Runs) error {
		resp.Pairs = appendPairIDs(resp.Pairs, g, part)
		return nil
	}
	if x.d.out != nil {
		if err := x.d.out.Begin(x.result, nil); err != nil {
			if errors.Is(err, ErrStopStream) {
				return resp, false, nil
			}
			return nil, false, err
		}
		emit = func(part pg.Runs) error { return x.d.send(pairBatch(g, part)) }
	}
	_, err = stage(x, "kernel", func() (any, error) { return nil, sweep(emit) })
	resp.Streamed = x.d.rows
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

// rendered is the delivery of every other kind, which has materialized its
// typed result in resp: with a sink, one batch whose rows batch renders
// against the query's snapshot inside the encoder, one row live at a time,
// and a Response left with only the count of rows the sink took; with
// none, resp as it is.
func (x *run) rendered(resp *Response, columns []string, batch func(g *graph.Graph) RowBatch) (*Response, error) {
	if x.d.out == nil {
		return resp, nil
	}
	err := x.d.out.Begin(x.result, columns)
	if b := batch(x.gs.g); err == nil && b.n > 0 {
		err = x.d.send(b)
	}
	if err != nil && !errors.Is(err, ErrStopStream) {
		return nil, err
	}
	*resp = Response{Streamed: x.d.rows}
	return resp, nil
}

// paths delivers path results, each row its Format.
func (x *run) paths(ps []PathResult, err error) (*Response, error) {
	if err != nil {
		return nil, err
	}
	return x.rendered(&Response{Paths: ps}, nil, func(g *graph.Graph) RowBatch {
		return RowBatch{n: len(ps), lines: func(i int) string { return ps[i].Format(g) }}
	})
}

// lines delivers rendered result lines: matches or spans.
func (x *run) lines(ls []string, err error) (*Response, error) {
	if err != nil {
		return nil, err
	}
	return x.rendered(&Response{Matches: ls}, nil, func(*graph.Graph) RowBatch {
		return RowBatch{n: len(ls), lines: func(i int) string { return ls[i] }}
	})
}

// cellBatch renders rows of cells, each cell by its Format against g.
func cellBatch[C interface{ Format(*graph.Graph) string }](g *graph.Graph, rows [][]C) RowBatch {
	return RowBatch{n: len(rows), cells: func(i int) []string {
		rendered := make([]string, len(rows[i]))
		for j, c := range rows[i] {
			rendered[j] = c.Format(g)
		}
		return rendered
	}}
}

// product returns the product of expr's Glushkov automaton with the
// query's snapshot, instrumented with the engine's runtime counters: the one
// place a served kernel is built. It is kept in the kernel cache under
// expr's printed text, one per (revision, text), so every plan that runs
// expr on a revision — the rpq, cypher and pmr rows' plan, the anchored
// ℓ-RPQ plan (on the erased expression), CRPQ atoms and relalg REACH atoms —
// runs on the one kernel, its condensation and its reversed kernel. The
// product binds the snapshot's graph, so the cache serves it only to the
// revision it was built against.
func (x *run) product(expr rpq.Expr) *eval.Product {
	p, _ := through(x.e.kernels, expr.String(), x.gs.rev, func() (*eval.Product, error) {
		return eval.NewProductInstrumented(x.gs.g, rpq.Compile(expr), &x.e.counters), nil
	})
	return p
}

// kernel is product's forward kernel: what the CRPQ plan's atoms sweep.
func (x *run) kernel(expr rpq.Expr) *pg.Kernel { return x.product(expr).Kernel() }

// readRPQ reads a plain RPQ to its plan: parse, then compile — the product
// with the graph — then cost-based planning, each a stage.
func readRPQ(x *run, text string) (rpqPlan, error) {
	return x.planRPQ(reader(bounded(rpq.Parse))(x, text))
}

// planRPQ compiles and plans an RPQ read by its row's reader.
func (x *run) planRPQ(expr rpq.Expr, err error) (rpqPlan, error) {
	if err != nil {
		return rpqPlan{}, err
	}
	p, _ := stage(x, "compile", func() (rpqPlan, error) { return rpqPlan{expr: expr, product: x.product(expr)}, nil })
	p.plan, _ = stage(x, "plan", func() (pg.Plan, error) { return x.e.planFor(x.gs, p.product.A), nil })
	return p, nil
}

// rpqPairs sweeps an RPQ plan from every node — plain RPQs and the Cypher
// fragment — and delivers the pairs as sweptPairs does.
func rpqPairs(x *run, p rpqPlan) (*Response, error) {
	x.tr.Set("plan", p.plan.String())
	resp, whole, err := x.sweptPairs(func(emit func(pg.Runs) error) error {
		return eval.PairsProductEmit(p.product,
			eval.Options{Parallelism: x.e.Parallelism, Meter: x.m, Plan: p.plan}, emit)
	})
	if whole {
		noteKernelActuals(x.gs, x.tr, p, x.m.SweepStatsSink())
	}
	return resp, err
}

// readTwoWay reads a 2RPQ to its compiled kernel.
func readTwoWay(x *run, text string) (*pg.Kernel, error) {
	expr, err := reader(bounded(twoway.Parse))(x, text)
	if err != nil {
		return nil, err
	}
	return stage(x, "compile", func() (*pg.Kernel, error) { return twoway.Kernel(x.gs.g, expr, &x.e.counters), nil })
}

// twoWayPairs sweeps a 2RPQ's kernel from every node and delivers the
// pairs as sweptPairs does.
func twoWayPairs(x *run, k *pg.Kernel) (*Response, error) {
	resp, _, err := x.sweptPairs(func(emit func(pg.Runs) error) error {
		return k.SweepAll(pg.Workers(x.e.Parallelism), x.m, true, emit)
	})
	return resp, err
}

// readCRPQ reads a CRPQ to its compiled plan (crpq.Plan).
func readCRPQ(x *run, text string) (*crpq.Plan, error) {
	q, err := reader(crpq.Parse)(x, text)
	if err != nil {
		return nil, err
	}
	return stage(x, "compile", func() (*crpq.Plan, error) { return crpq.Compile(x.gs.g, q, x.kernel) })
}

// crpqRows evaluates a CRPQ plan: the atoms' sweeps and tier plans are the
// "kernel" stage, the join, projection and ordering the "enumerate" stage.
func crpqRows(x *run, p *crpq.Plan) (*Response, error) {
	opts := crpq.Options{AtomMaxLen: x.maxLen, Parallelism: x.e.Parallelism, Meter: x.m}
	swept, err := stage(x, "kernel", func() (*crpq.Swept, error) { return p.Sweep(opts) })
	if err != nil {
		return nil, err
	}
	res, err := stage(x, "enumerate", swept.Join)
	if err != nil {
		return nil, err
	}
	return x.rendered(&Response{Rows: res}, res.Head, func(g *graph.Graph) RowBatch { return cellBatch(g, res.Rows) })
}

// readLRPQ reads an anchored (ℓ-)RPQ to its plan (lrpq.Plan: annotated
// automaton on the kernel of the erased expression).
func readLRPQ(x *run, text string) (*lrpq.Plan, error) {
	expr, err := reader(bounded(lrpq.Parse))(x, text)
	if err != nil {
		return nil, err
	}
	return stage(x, "compile", func() (*lrpq.Plan, error) { return lrpq.NewPlan(x.kernel(lrpq.Erase(expr)), expr), nil })
}

// lrpqPaths evaluates an ℓ-RPQ plan between the anchors. In shortest mode
// the search between them is the "kernel" stage and the walk over the
// shortest-path DAG, with path building, the "enumerate" stage; the plan
// attribute records the depths at which the two sides met. The other modes
// interleave search and path reconstruction, so one "enumerate" stage
// covers their evaluation.
func lrpqPaths(x *run, p *lrpq.Plan) (*Response, error) {
	if x.req.Mode != eval.Shortest {
		return x.paths(pathResults(stage(x, "enumerate", func() ([]gpath.PathBinding, error) {
			return p.Between(x.u, x.v, x.req.Mode, lrpq.Options{MaxLen: x.maxLen, Limit: x.limit, Meter: x.m})
		})))
	}
	meet, err := stage(x, "kernel", func() (*pg.Meet, error) { return p.Search(x.u, x.v, x.m) })
	if err != nil {
		return nil, err
	}
	x.tr.Set("plan", fmt.Sprintf("between fwd=%d bwd=%d", meet.Fwd, meet.Bwd))
	return x.paths(pathResults(stage(x, "enumerate", func() ([]gpath.PathBinding, error) {
		return p.Shortest(meet, x.limit, x.m)
	})))
}

// readDLRPQ reads a dl-RPQ to its plan (dlrpq.Plan: atom automaton with
// its edge guards resolved against the graph).
func readDLRPQ(x *run, text string) (*dlrpq.Plan, error) {
	expr, err := reader(bounded(dlrpq.Parse))(x, text)
	if err != nil {
		return nil, err
	}
	return stage(x, "compile", func() (*dlrpq.Plan, error) { return dlrpq.NewPlan(x.gs.g, expr), nil })
}

// dlrpqPaths evaluates a dl-RPQ plan between the anchors; search and path
// reconstruction interleave, under one "enumerate" stage.
func dlrpqPaths(x *run, p *dlrpq.Plan) (*Response, error) {
	return x.paths(pathResults(stage(x, "enumerate", func() ([]gpath.PathBinding, error) {
		return p.Between(x.u, x.v, x.req.Mode,
			dlrpq.Options{MaxLen: x.maxLen, Limit: x.limit, Meter: x.m, Counters: &x.e.counters})
	})))
}

func pathResults(pbs []gpath.PathBinding, err error) ([]PathResult, error) {
	out := make([]PathResult, len(pbs))
	for i, pb := range pbs {
		out[i] = PathResult{Path: pb.Path, Binding: pb.Binding}
	}
	return out, err
}
