package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrKilled is the cancellation cause an operator kill delivers: the query
// ends through the normal cooperative-cancellation path (pg.ErrCanceled
// taxonomy, no partial results), but serving layers can tell an admin kill
// from a client disconnect with errors.Is and report a distinct "killed"
// outcome.
var ErrKilled = errors.New("query killed by operator")

// Active is one in-flight query as the registry tracks it: its monotonic
// ID, admission metadata, live Progress, and the cancel hook a Kill fires.
type Active struct {
	ID      uint64
	Graph   string
	Query   string
	Lang    string
	Started time.Time

	// Progress is sampled by GET /v1/queries and fed by the evaluation
	// layers through the meter; never nil for an admitted query.
	Progress *Progress

	cancel context.CancelCauseFunc
}

// LiveQuery is the JSON shape of one in-flight query on GET /v1/queries.
type LiveQuery struct {
	ID        uint64  `json:"id"`
	Graph     string  `json:"graph"`
	Query     string  `json:"query"`
	Lang      string  `json:"lang,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	ProgressSnapshot
}

// CompletedQuery is the structured record of one finished query: the query
// event log writes it as one JSONL line, the slow-query log renders the
// same record as a WARN, and the registry's ring buffer keeps the last N
// for GET /v1/queries/recent — one builder, three sinks, so they can't
// drift.
type CompletedQuery struct {
	ID    uint64 `json:"id"`
	Graph string `json:"graph"`
	// GraphRev is the store revision of the snapshot the query evaluated
	// against (0 when the engine serves a plain static graph) — the handle
	// for pinning a slow query to the exact live-store state it saw.
	GraphRev  uint64    `json:"graph_rev,omitempty"`
	Query     string    `json:"query"`
	Lang      string    `json:"lang,omitempty"`
	Outcome   string    `json:"outcome"`
	Error     string    `json:"error,omitempty"`
	Plan      string    `json:"plan,omitempty"`
	StartedAt time.Time `json:"started_at"`
	ElapsedMS float64   `json:"elapsed_ms"`
	States    int64     `json:"states"`
	Rows      int64     `json:"rows"`
	Spans     []Span    `json:"spans,omitempty"`
	// Analyze carries the annotated plan tree when the query ran in analyze
	// mode — the serving layer deposits its core.AnnotatedPlan here (typed
	// any to keep obs free of core imports), enriching the query-event JSONL
	// and the slow-query WARN with the estimate-vs-actual audit.
	Analyze any `json:"analyze,omitempty"`
}

// Registry tracks every in-flight query of a serving layer and remembers
// the last N completed ones. Admission assigns monotonic query IDs (never
// reused for the registry's lifetime), so an ID names one query run
// unambiguously across the live view, the recent ring, and the query log.
//
// The registry is not on the evaluation hot path: Admit/Finish run once per
// query and Live/Recent once per introspection request, so a plain mutex
// suffices — the lock-free part is the Progress structs it hands out.
type Registry struct {
	nextID atomic.Uint64

	mu   sync.Mutex
	live map[uint64]*Active
	ring []CompletedQuery // fixed capacity, next is the oldest slot
	next int
}

// DefaultRecent is the completed-query ring capacity when NewRegistry is
// given n <= 0.
const DefaultRecent = 64

// NewRegistry builds a registry remembering the last n completed queries.
func NewRegistry(n int) *Registry {
	if n <= 0 {
		n = DefaultRecent
	}
	return &Registry{
		live: make(map[uint64]*Active),
		ring: make([]CompletedQuery, 0, n),
	}
}

// Admit registers one admitted query and returns its Active handle with a
// freshly assigned ID and Progress. cancel (may be nil) is the hook Kill
// fires with ErrKilled as the cause.
func (r *Registry) Admit(graphName, query, lang string, cancel context.CancelCauseFunc) *Active {
	a := &Active{
		ID:       r.nextID.Add(1),
		Graph:    graphName,
		Query:    query,
		Lang:     lang,
		Started:  time.Now(),
		Progress: &Progress{},
		cancel:   cancel,
	}
	r.mu.Lock()
	r.live[a.ID] = a
	r.mu.Unlock()
	return a
}

// Kill cancels the in-flight query with the given ID, delivering ErrKilled
// as the context cause so the query dies through the cooperative
// ErrCanceled path. It reports whether a live query with that ID existed;
// already-finished queries cannot be killed.
func (r *Registry) Kill(id uint64) bool {
	r.mu.Lock()
	a, ok := r.live[id]
	r.mu.Unlock()
	if !ok || a.cancel == nil {
		return ok
	}
	a.cancel(ErrKilled)
	return true
}

// Finish retires a's live entry and records rec in the completed-query
// ring. The caller builds rec (outcome, spans, consumption); Finish stamps
// the identity fields from a so ring entries always match their admission.
func (r *Registry) Finish(a *Active, rec CompletedQuery) {
	rec.ID = a.ID
	rec.Graph = a.Graph
	rec.Query = a.Query
	rec.Lang = a.Lang
	rec.StartedAt = a.Started
	r.mu.Lock()
	delete(r.live, a.ID)
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
	}
	r.next = (r.next + 1) % cap(r.ring)
	r.mu.Unlock()
}

// Live samples every in-flight query, sorted by ID ascending (admission
// order). Each entry's progress is read from its lock-free Progress at call
// time.
func (r *Registry) Live() []LiveQuery {
	now := time.Now()
	r.mu.Lock()
	actives := make([]*Active, 0, len(r.live))
	for _, a := range r.live {
		actives = append(actives, a)
	}
	r.mu.Unlock()
	out := make([]LiveQuery, len(actives))
	for i, a := range actives {
		out[i] = LiveQuery{
			ID:               a.ID,
			Graph:            a.Graph,
			Query:            a.Query,
			Lang:             a.Lang,
			ElapsedMS:        float64(now.Sub(a.Started).Microseconds()) / 1000,
			ProgressSnapshot: a.Progress.Snapshot(),
		}
	}
	// Insertion sort: the live set is small (bounded by the admission
	// limiter) and nearly sorted already.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Recent returns the completed-query ring, newest first.
func (r *Registry) Recent() []CompletedQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	// next-1 is the most recently written slot; before the ring wraps,
	// next == len(ring), so the same walk covers both regimes.
	n := len(r.ring)
	out := make([]CompletedQuery, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.ring[((r.next-1-i)%n+n)%n])
	}
	return out
}

// InFlight returns the number of live queries.
func (r *Registry) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}
