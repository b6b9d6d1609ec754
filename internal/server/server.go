// Package server is the embeddable query service behind cmd/gqserverd: a
// set of named graphs, each with its own core.Engine, exposed over an HTTP
// JSON API with per-query deadlines, cooperative cancellation, admission
// control, and resource budgets.
//
// The serving posture follows directly from the paper's complexity
// landscape: evaluation cost for the languages the engine implements can be
// exponential in the query or output (Propositions 22–24, Example 28), so a
// multi-tenant service must bound each query's resources — wall-clock via
// context deadlines, memory/work via eval.Budget — and bound its own
// concurrency via an admission limiter rather than letting load fan out
// into unbounded goroutines.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
	"graphquery/internal/store"
)

// Config tunes a Server. The zero value serves with no deadlines, no
// budgets, and concurrency bounded at defaultMaxConcurrent.
type Config struct {
	// DefaultTimeout is the per-query deadline applied when the request
	// does not carry its own timeout_ms (0: none).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts, and applies even when the
	// client asked for no deadline (0: uncapped).
	MaxTimeout time.Duration
	// MaxConcurrent bounds queries evaluating simultaneously
	// (0: defaultMaxConcurrent).
	MaxConcurrent int
	// MaxQueue bounds admissions waiting for a concurrency slot; a request
	// arriving with the queue full is rejected immediately with 429
	// (0: no waiting, reject as soon as all slots are busy).
	MaxQueue int
	// DefaultBudget is the per-query resource budget; requests may
	// override it field-by-field. Zero fields are unlimited.
	DefaultBudget eval.Budget
	// MaxLen / Limit / Parallelism seed the per-graph engines (0: engine
	// defaults).
	MaxLen, Limit, Parallelism int
	// SlowQuery is the slow-query log threshold: every admitted query
	// whose wall-clock reaches it emits exactly one structured WARN record
	// (query text, graph, plan line, span timings, budget consumption,
	// outcome). 0 disables the log. The record is the same obs.CompletedQuery
	// the query event log writes — the slow log is a threshold filter over
	// the query log's record builder, so the two cannot drift.
	SlowQuery time.Duration
	// Logger receives the server's structured log records (slow queries).
	// nil uses slog.Default().
	Logger *slog.Logger
	// QueryLog, when non-nil, receives exactly one JSONL record
	// (obs.CompletedQuery: id, graph, query, plan, spans, budget
	// consumption, outcome) per admitted query — the structured query
	// event log behind gqserverd -query-log. Writes are serialized by the
	// server; the writer need not be concurrency-safe.
	QueryLog io.Writer
	// Recent bounds the completed-query ring buffer behind
	// GET /v1/queries/recent (0: obs.DefaultRecent).
	Recent int
	// Mutable enables the write surface: POST /v1/graphs, POST
	// /v1/graphs/{name}/mutate, DELETE /v1/graphs/{name}. When false those
	// endpoints answer 405 read_only. Graphs registered by the embedder
	// (Register, LoadNamed) are read-only catalog graphs either way.
	Mutable bool
	// CompactThreshold is the live store's delta depth that triggers
	// background compaction (0: store.DefaultCompactThreshold; negative
	// disables compaction).
	CompactThreshold int
	// MaxLoadBytes bounds the POST /v1/graphs request body; larger loads
	// are rejected with 413 too_large (0: defaultMaxLoadBytes).
	MaxLoadBytes int64
	// StreamBuffer is the backpressure window of streamed queries, in
	// chunks: at most StreamBuffer encoded chunks sit between evaluation
	// and a slow client before the evaluation workers block
	// (0: defaultStreamBuffer).
	StreamBuffer int
}

const defaultMaxConcurrent = 16

// defaultStreamBuffer chunks in flight between evaluation and the client.
const defaultStreamBuffer = 4

// defaultMaxLoadBytes bounds bulk graph loads when the config leaves
// MaxLoadBytes zero: big enough for generous test fixtures, small enough
// that one request cannot balloon the heap.
const defaultMaxLoadBytes = 32 << 20

// Server is a query service over named graphs. Create with New, populate
// with Register / LoadNamed, then serve Handler.
type Server struct {
	cfg Config

	mu      sync.RWMutex
	engines map[string]*core.Engine

	// store owns every served graph's MVCC version chain. Engines are kept
	// pointed at the latest snapshot through the store's OnSwap hook; the
	// lock-order rule is: never call a store write operation while holding
	// s.mu (OnSwap fires under the store's per-graph write lock and takes
	// s.mu.RLock).
	store *store.Store

	// sem holds one token per in-flight query; queued counts admissions
	// blocked waiting for a token, checked against cfg.MaxQueue.
	sem    chan struct{}
	queued atomic.Int64

	stats counters

	// latency observes the wall-clock of every admitted query (queue wait
	// included), exposed as gq_query_duration_seconds on GET /metrics.
	latency *obs.Histogram

	// qerror observes the root-level estimate-vs-actual q-error of every
	// analyze-mode query, exposed as gq_cardest_qerror on GET /metrics.
	qerror *obs.Histogram

	// stageLatency holds one histogram per evaluation stage, indexed like
	// stageNames and exposed as gq_stage_duration_seconds{stage=...}.
	stageLatency [len(stageNames)]*obs.Histogram

	// registry tracks in-flight queries (GET /v1/queries, cooperative kill)
	// and the recently completed ring (GET /v1/queries/recent).
	registry *obs.Registry

	// logMu serializes JSONL writes to cfg.QueryLog.
	logMu sync.Mutex

	// chunkBytes, when set, cuts every NDJSON chunk at this many bytes
	// instead of at firstChunk doubling to segSize: tests set it to put
	// chunk boundaries a row or a few apart.
	chunkBytes int
}

// stageNames are the engine's evaluation stages, in pipeline order — the
// label values of gq_stage_duration_seconds. They match the span names
// core.Engine records (see internal/core query tracing), plus "stream",
// the serving-side delivery drain of a streamed response (trailer flush +
// writer join; recorded by streamer.finish, disjoint from the evaluation
// spans).
var stageNames = [...]string{"parse", "compile", "plan", "kernel", "enumerate", "stream"}

// New returns an empty server with cfg's admission limiter.
func New(cfg Config) *Server {
	mc := cfg.MaxConcurrent
	if mc <= 0 {
		mc = defaultMaxConcurrent
	}
	s := &Server{
		cfg:      cfg,
		engines:  make(map[string]*core.Engine),
		sem:      make(chan struct{}, mc),
		latency:  obs.NewHistogram(obs.DefBuckets()),
		qerror:   obs.NewHistogram(qErrorBuckets()),
		registry: obs.NewRegistry(cfg.Recent),
	}
	s.store = store.New(store.Config{
		CompactThreshold: cfg.CompactThreshold,
		OnSwap:           s.onStoreSwap,
	})
	for i := range s.stageLatency {
		s.stageLatency[i] = obs.NewHistogram(obs.DefBuckets())
	}
	return s
}

// Store exposes the live graph store (tests, embedders). Prefer the HTTP
// surface for client writes: it keeps the error taxonomy.
func (s *Server) Store() *store.Store { return s.store }

// Close waits for the store's background compactions to finish.
func (s *Server) Close() { s.store.Close() }

// onStoreSwap points a graph's engine at a freshly published snapshot. It
// runs under the store's per-graph write lock, in commit order, so engines
// never observe version chains out of order. The pin hook refcounts the
// snapshot per query (engine queries acquire on entry, release when done).
func (s *Server) onStoreSwap(name string, snap *store.Snapshot) {
	s.mu.RLock()
	e := s.engines[name]
	s.mu.RUnlock()
	if e == nil {
		return // registration in progress; register installs the snapshot itself
	}
	if snap.Rev < e.GraphRev() {
		return // stale double-install from the registration handshake
	}
	e.SetGraphPinned(snap.G, snap.Rev, func() func() {
		snap.Acquire()
		return snap.Release
	})
}

// Registry exposes the in-flight query registry (admission, live progress,
// cooperative kill) for embedders and tests.
func (s *Server) Registry() *obs.Registry { return s.registry }

// logger resolves the structured-log destination.
func (s *Server) logger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// Register adds g under name as a read-only catalog graph and returns its
// engine (already seeded with the server's MaxLen/Limit/Parallelism/
// DefaultBudget) for further customization before serving starts.
// Re-registering a name replaces it.
func (s *Server) Register(name string, g *graph.Graph) *core.Engine {
	e, _ := s.register(name, g, true, true)
	return e
}

// register adopts g into the live store under name and wires its engine to
// track snapshot swaps. replace drops any existing chain first (embedder
// Register semantics); the HTTP load path passes replace=false and maps
// store.ErrExists to 409.
func (s *Server) register(name string, g *graph.Graph, readOnly, replace bool) (*core.Engine, error) {
	if replace {
		s.store.Drop(name)
	}
	h, err := s.store.Load(name, g, readOnly)
	if err != nil {
		return nil, err
	}
	e := core.New(g)
	if s.cfg.MaxLen > 0 {
		e.MaxLen = s.cfg.MaxLen
	}
	e.Limit = s.cfg.Limit
	e.Parallelism = s.cfg.Parallelism
	e.Budget = s.cfg.DefaultBudget
	s.mu.Lock()
	s.engines[name] = e
	s.mu.Unlock()
	// The Load-time OnSwap fired before the engine was registered (no-op);
	// install the current snapshot now. Any commit that raced in between
	// re-fires OnSwap after us with a higher Rev, so the engine converges.
	s.onStoreSwap(name, h.Snapshot())
	return e, nil
}

// LoadNamed registers graphs from the built-in catalog (gen.Named) under
// their catalog names.
func (s *Server) LoadNamed(names ...string) error {
	for _, name := range names {
		g, err := gen.Named(name)
		if err != nil {
			return err
		}
		s.Register(name, g)
	}
	return nil
}

// Engine returns the engine serving name, or nil.
func (s *Server) Engine(name string) *core.Engine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.engines[name]
}

// GraphNames lists the registered graph names, sorted.
func (s *Server) GraphNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.engines))
	for name := range s.engines {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// errOverloaded is the admission-control rejection: all concurrency slots
// busy and the wait queue full.
var errOverloaded = errors.New("server: overloaded")

// acquire claims a concurrency slot, waiting in the bounded queue if the
// limiter is saturated. It returns errOverloaded when the queue is full and
// the ctx error when the caller goes away while queued.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.MaxQueue <= 0 {
		return errOverloaded
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return errOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *Server) release() { <-s.sem }

// timeoutFor resolves the effective deadline for a request that asked for
// requested (0: use the default), clamped to MaxTimeout. 0 means no
// deadline.
func (s *Server) timeoutFor(requested time.Duration) time.Duration {
	d := s.cfg.DefaultTimeout
	if requested > 0 {
		d = requested
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// evaluate runs one admitted query — the handler's one engine call:
// resolve the deadline, evaluate under ctx with results leaving through
// sink, and account the meter readings. A panic on this goroutine (the
// fan-out contains its workers' own) is recovered into an error, so the
// handler's ordinary error path answers it — internal 500 envelope or
// trailer, slot released, registry entry finished — instead of net/http
// tearing down the connection with the query still registered.
func (s *Server) evaluate(ctx context.Context, e *core.Engine, req core.Request, timeout time.Duration, sink core.Sink) (resp *core.Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, &pg.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout,
			fmt.Errorf("%w: query deadline %v exceeded", context.DeadlineExceeded, timeout))
		defer cancel()
	}
	resp, err = e.QueryStream(ctx, req, sink)
	if resp != nil {
		s.stats.statesVisited.Add(resp.StatesVisited)
		s.stats.rowsReturned.Add(int64(resp.Count()))
	}
	return resp, err
}
