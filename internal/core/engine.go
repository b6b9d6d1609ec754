// Package core wires the paper's language tower into a single query
// engine: plain RPQs (Section 3.1.1), ℓ-RPQs (3.1.4), dl-RPQs (3.2.1), and
// (dl-)CRPQs (3.1.2/3.1.5/3.2.2) over one property graph, with path modes
// and the product-construction machinery of Section 6. It is the engine
// behind cmd/gqd and the examples.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"graphquery/internal/automata"
	"graphquery/internal/cardest"
	"graphquery/internal/crpq"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
	pgplan "graphquery/internal/pg/plan"
	"graphquery/internal/pmr"
	"graphquery/internal/regular"
	"graphquery/internal/rpq"
)

// graphState is one immutable (graph, revision) pair the engine serves
// queries against. SetGraph replaces the whole state atomically, so a query
// that loaded it once sees a consistent graph + planner + revision for its
// entire run — snapshot isolation at the engine boundary even while a live
// store commits new versions underneath. Nothing graph-derived is cached
// here: planner statistics are a view over counts the graph keeps
// (cardest.Of) and neighbor tables live on the graph's version chain, so
// a new state costs nothing until a query compiles against it.
type graphState struct {
	g   *graph.Graph
	rev uint64

	// pin, when set by SetGraphPinned, refcounts the backing store snapshot
	// for the duration of one query: acquire() takes a reference and returns
	// its release. It lets a live store account for in-flight readers of a
	// superseded snapshot.
	pin func() func()
}

// acquire pins the state's backing snapshot and returns the release; a
// state without a pin hook returns a no-op.
func (gs *graphState) acquire() func() {
	if gs.pin == nil {
		return func() {}
	}
	return gs.pin()
}

// Engine evaluates queries over a graph. The graph is swappable (SetGraph):
// each query atomically loads the current graphState once on entry, so it
// runs start-to-finish against one consistent snapshot.
type Engine struct {
	cur atomic.Pointer[graphState]

	// MaxLen bounds mode-all enumerations (0: require finite modes).
	MaxLen int
	// Limit bounds the number of returned paths/rows (0: unlimited).
	Limit int
	// Parallelism caps the worker goroutines used by per-source fan-out
	// (Pairs, CRPQ atom materialization); 0 means one per available CPU,
	// 1 forces sequential evaluation.
	Parallelism int
	// Budget is the default per-query resource budget applied by QueryCtx
	// and QueryStream. Zero fields are unlimited; the typed conveniences
	// (Pairs, Rows, ...) ignore it entirely.
	Budget pg.Budget

	// plans caches parsed ASTs and compiled plans keyed by normalized query
	// text × query kind, so repeated queries skip parse + Glushkov.
	plans *planCache
	// kernels caches the product of each RPQ expression a served plan runs
	// on, keyed by its printed text, one per graph revision (run.product),
	// at the plan cache's capacity; CacheStats counts plans only.
	kernels *planCache

	// counters aggregates the unified runtime's work and plan-choice
	// statistics across every query this engine evaluates; RuntimeStats
	// snapshots it for /v1/statz.
	counters pg.Counters
}

// New returns an engine over g with a default enumeration bound and plan
// cache.
func New(g *graph.Graph) *Engine {
	e := &Engine{MaxLen: 16, plans: newPlanCache(defaultPlanCacheCap), kernels: newPlanCache(defaultPlanCacheCap)}
	e.cur.Store(&graphState{g: g, rev: 1})
	return e
}

// Graph returns the graph the engine currently serves.
func (e *Engine) Graph() *graph.Graph { return e.cur.Load().g }

// GraphRev returns the revision the current graph was installed under.
func (e *Engine) GraphRev() uint64 { return e.cur.Load().rev }

// SetGraph atomically replaces the graph the engine serves. rev must be
// monotonic per engine (a live store's Rev): every cached plan carries the
// revision it was compiled against, so plans of an older revision — whose
// products hold the old graph — are never replayed against the new one and
// are overwritten by its first query of the same text. In-flight queries keep
// the state they loaded on entry and finish on the old snapshot.
func (e *Engine) SetGraph(g *graph.Graph, rev uint64) { e.SetGraphPinned(g, rev, nil) }

// SetGraphPinned is SetGraph with a pin hook: every query acquires pin() on
// entry and calls the returned release when it finishes, letting the
// snapshot's owner refcount in-flight readers across swaps.
func (e *Engine) SetGraphPinned(g *graph.Graph, rev uint64, pin func() func()) {
	e.cur.Store(&graphState{g: g, rev: rev, pin: pin})
}

// CacheStats returns a snapshot of the compiled-plan cache counters.
func (e *Engine) CacheStats() CacheStats {
	if e.plans == nil {
		return CacheStats{}
	}
	return e.plans.stats()
}

// SetPlanCacheCapacity bounds the plan cache, and the kernel cache with
// it, to n entries each, evicting the least recently used immediately if
// shrinking; n ≤ 0 disables caching.
func (e *Engine) SetPlanCacheCapacity(n int) {
	if e.plans == nil {
		e.plans, e.kernels = newPlanCache(n), newPlanCache(n)
		return
	}
	e.plans.resize(n)
	e.kernels.resize(n)
}

// PathResult is one path answer with its list-variable bindings.
type PathResult struct {
	Path    gpath.Path
	Binding gpath.Binding
}

// Format renders the result with external IDs.
func (r PathResult) Format(g *graph.Graph) string {
	if len(r.Binding) == 0 {
		return r.Path.Format(g)
	}
	return r.Path.Format(g) + "  " + r.Binding.Format(g)
}

// rpqPlan is the cached compilation product of a plain RPQ: its parsed
// expression, its product with the engine's graph from the kernel cache
// (the Glushkov NFA, its guards resolved against the label index), and the
// kernel plan the cost-based planner chose for it. All three are
// immutable, so a cached plan serves concurrent queries. The plan
// snapshots e.Parallelism at compile time; the knob is part of the cache
// key, so changing it routes queries to a freshly planned entry rather
// than a stale one.
type rpqPlan struct {
	expr    rpq.Expr
	product *eval.Product
	plan    pg.Plan
}

// planMinNodes gates the planner: below this graph size every plan's
// worst case is microseconds, so the cost model — O(|δ|) per compiled
// automaton — would cost more than any choice it could save. Tiny graphs
// keep the zero (forward, indexed, sequential) plan.
const planMinNodes = 32

// planFor plans one compiled automaton against gs, or returns the default
// plan when the graph is too small for planning to pay for itself.
func (e *Engine) planFor(gs *graphState, nfa *automata.NFA) pg.Plan {
	if gs.g.NumNodes() < planMinNodes {
		return pg.Plan{}
	}
	return pgplan.New(gs.g).ForNFA(nfa, e.Parallelism, 0)
}

// RuntimeStats snapshots the unified runtime's counters: product states
// expanded, edges scanned, peak frontier, and plan choices, cumulative
// over every query this engine has evaluated.
func (e *Engine) RuntimeStats() pg.CountersSnapshot { return e.counters.Snapshot() }

// planRPQ returns a plain RPQ's plan from the cache's "rpq" family, read
// as the RPQ row reads it, for the library calls that inspect a plan
// rather than serve it; tr (nil: untraced) receives the stages of a miss.
func (e *Engine) planRPQ(gs *graphState, tr *obs.Trace, query string) (rpqPlan, error) {
	x := &run{e: e, gs: gs, tr: tr}
	p, err := cached(e, gs, "rpq", query, func(text string) (rpqPlan, error) { return readRPQ(x, text) })
	if err != nil {
		return rpqPlan{}, badQuery(err)
	}
	return p, nil
}

// typed serves req as kind k on the current graph under the engine's
// MaxLen and Limit, with no meter, trace or sink: the typed conveniences
// below, which read the Response's typed fields. anchored says the caller
// asks for paths between req.From and req.To.
func (e *Engine) typed(k QueryKind, req Request, anchored bool) (*Response, error) {
	gs := e.cur.Load()
	defer gs.acquire()()
	x := &run{e: e, gs: gs, req: req, maxLen: e.MaxLen, limit: e.Limit, anchored: anchored}
	resp, err := x.serve(k)
	return resp, classify(err)
}

// Pairs evaluates a plain RPQ to its endpoint-pair semantics ⟦R⟧_G.
// Like the other typed conveniences it is QueryCtx's evaluator under a nil
// meter (uncancellable, no budget), so both report errors in the same
// taxonomy.
func (e *Engine) Pairs(query string) ([][2]graph.NodeID, error) {
	resp, err := e.typed(KindRPQ, Request{Query: query}, false)
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// Paths evaluates an (ℓ-)RPQ or dl-RPQ between two nodes under a mode.
func (e *Engine) Paths(query string, src, dst graph.NodeID, mode eval.Mode) ([]PathResult, error) {
	resp, err := e.typed(Detect(query), Request{Query: query, From: src, To: dst, Mode: mode}, true)
	if err != nil {
		return nil, err
	}
	return resp.Paths, nil
}

// Rows evaluates a (dl-)CRPQ and renders its output tuples.
func (e *Engine) Rows(query string) (*crpq.Result, error) {
	resp, err := e.typed(KindCRPQ, Request{Query: query}, false)
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Representation builds a PMR for the matching paths of a plain RPQ
// between two nodes — the compact intermediate representation of Section
// 6.4 — without enumerating them.
func (e *Engine) Representation(query string, src, dst graph.NodeID, shortestOnly bool) (*pmr.PMR, error) {
	gs := e.cur.Load()
	defer gs.acquire()()
	plan, err := e.planRPQ(gs, nil, query)
	if err != nil {
		return nil, err
	}
	x := &run{gs: gs, req: Request{From: src, To: dst}, anchored: true}
	if err := x.resolveAnchors(); err != nil {
		return nil, err
	}
	build := pmr.FromKernel
	if shortestOnly {
		build = pmr.ShortestFromKernel
	}
	return build(plan.product.Kernel(), x.u, x.v, nil)
}

// Explain reports the compiled automaton's size and ambiguity for an RPQ —
// the statistics of the E22 experiment — plus the chosen kernel plan and,
// when this call compiled the query (a plan-cache miss), the compilation
// trace spans with their timings.
func (e *Engine) Explain(query string) (string, error) {
	gs := e.cur.Load()
	defer gs.acquire()()
	tr := obs.NewTrace()
	plan, err := e.planRPQ(gs, tr, query)
	if err != nil {
		return "", err
	}
	expr := plan.expr
	simplified := rpq.Simplify(expr)
	nfa := rpq.Compile(simplified)
	det := nfa.Determinize().Minimize()
	var b strings.Builder
	fmt.Fprintf(&b, "expression:      %s (size %d)\n", expr, rpq.Size(expr))
	if simplified.String() != expr.String() {
		fmt.Fprintf(&b, "simplified:      %s (size %d)\n", simplified, rpq.Size(simplified))
	}
	fmt.Fprintf(&b, "glushkov NFA:    %d states, %d transitions\n", nfa.NumStates, nfa.NumTransitions())
	fmt.Fprintf(&b, "unambiguous:     %v\n", nfa.IsUnambiguous())
	fmt.Fprintf(&b, "minimal DFA:     %d states\n", det.NumStates())
	fmt.Fprintf(&b, "plan:            %s\n", plan.plan)
	if spans := tr.Spans(); len(spans) > 0 {
		fmt.Fprintf(&b, "spans:           %s\n", obs.SpansString(spans))
	}
	return b.String(), nil
}

// ProgramRows evaluates a nested-CRPQ program (package regular): every line
// but the last defines a virtual edge label; the last line is the final
// query (Section 3.1.3, Example 15).
func (e *Engine) ProgramRows(program string) (*crpq.Result, error) {
	gs := e.cur.Load()
	defer gs.acquire()()
	p, err := cached(e, gs, "prog", program, regular.Parse)
	if err != nil {
		return nil, badQuery(err)
	}
	res, err := regular.Eval(gs.g, p, crpq.Options{AtomMaxLen: e.MaxLen, Parallelism: e.Parallelism})
	return res, classify(err)
}

// TwoWayPairs evaluates a two-way RPQ (inverse atoms written ~a, Remark 9)
// to its endpoint-pair semantics.
func (e *Engine) TwoWayPairs(query string) ([][2]graph.NodeID, error) {
	resp, err := e.typed(KindTwoWay, Request{Query: query}, false)
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// Estimate returns the predicted and actual answer counts of an RPQ (the
// Section 7.1 cardinality-estimation direction, package cardest).
func (e *Engine) Estimate(query string) (estimate float64, actual int, err error) {
	gs := e.cur.Load()
	defer gs.acquire()()
	plan, err := e.planRPQ(gs, nil, query)
	if err != nil {
		return 0, 0, err
	}
	pairs, _ := eval.PairsProduct(plan.product, eval.Options{Parallelism: e.Parallelism, Plan: plan.plan}) // no meter: cannot fail
	actual = len(pairs)
	return cardest.Of(gs.g).Estimate(plan.expr, 0), actual, nil
}

// GQLMatch evaluates a GQL ASCII-art pattern (package gql: group variables,
// partial bindings — the practice-side semantics of Examples 1 and 2) and
// renders its matches.
func (e *Engine) GQLMatch(pattern string) ([]string, error) {
	resp, err := e.typed(KindGQL, Request{Query: pattern}, false)
	if err != nil {
		return nil, err
	}
	return resp.Matches, nil
}
