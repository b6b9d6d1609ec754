// Package obs is the engine's stdlib-only observability layer: per-query
// trace spans (this file), Prometheus text-format metric rendering and a
// hand-rolled latency histogram (prom.go). Nothing here imports the rest
// of the repository, so every layer — the product-graph runtime, the core
// engine, the HTTP service, the daemons — can depend on it freely.
//
// The paper's central warning (Section 6.1 bag-semantics explosion,
// Section 6.3 exponential-output graphs) is that graph-query cost is
// combinatorial; budgets bound it, but an operator also has to *see* it:
// which query burned the budget, which plan the planner picked, and where
// the time went. A Trace answers the last question for one query; the
// metric side answers it for the fleet.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded evaluation stage of a query: a name (the engine
// uses parse, compile, plan, kernel, enumerate), its start offset and
// duration in nanoseconds, and the product states and result rows the
// stage accounted for on the meter while it ran.
//
// An Accumulated span was not timed from Start to End: its duration is a
// sum of slices the caller measured while another span was open (result
// delivery interleaved with the kernel sweep), and that span was recorded
// shorter by the same amount (ActiveSpan.Exclude) — so a query's spans
// never overlap and their durations sum to at most its wall clock. Whether
// one exists can depend on timing (a client that never blocked leaves no
// "stream" slice), so consumers that need a deterministic stage list skip
// them.
type Span struct {
	Name        string `json:"name"`
	StartNS     int64  `json:"start_ns"`
	DurNS       int64  `json:"dur_ns"`
	States      int64  `json:"states,omitempty"`
	Rows        int64  `json:"rows,omitempty"`
	Accumulated bool   `json:"accumulated,omitempty"`
}

func (s Span) String() string {
	out := fmt.Sprintf("%s=%v", s.Name, time.Duration(s.DurNS))
	if s.States > 0 || s.Rows > 0 {
		out += fmt.Sprintf("[states=%d rows=%d]", s.States, s.Rows)
	}
	return out
}

// SpansString renders a span list on one line ("parse=4µs kernel=1.2ms
// [states=900 rows=36] …") — the format the slow-query log and Explain
// embed.
func SpansString(spans []Span) string {
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// Trace collects the spans and string attributes of one query. All methods
// are safe for concurrent use and nil-safe: a nil *Trace records nothing
// and costs nothing, so untraced call paths pay only a nil check.
type Trace struct {
	t0    time.Time
	prog  atomic.Pointer[Progress]
	mu    sync.Mutex
	spans []Span
	attrs map[string]string
}

// NewTrace starts an empty trace; its clock zero is now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// BindProgress attaches a live Progress to the trace: every span opened
// after the bind also sets the progress stage, so a serving layer that
// already traces its queries gets live stage sampling with no extra calls.
// A nil p (or nil t) is a no-op.
func (t *Trace) BindProgress(p *Progress) {
	if t == nil || p == nil {
		return
	}
	t.prog.Store(p)
}

// Start opens a span. End it (once) to record it on the trace.
func (t *Trace) Start(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	if p := t.prog.Load(); p != nil {
		p.SetStage(name)
	}
	return &ActiveSpan{tr: t, name: name, begin: time.Now()}
}

// Add records an Accumulated span: d of stage name, measured by the caller
// and ending now.
func (t *Trace) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{Name: name, StartNS: (time.Since(t.t0) - d).Nanoseconds(), DurNS: d.Nanoseconds(), Accumulated: true}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Set records a string attribute (the engine stores the chosen plan line
// under "plan"), overwriting any previous value for the key.
func (t *Trace) Set(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = make(map[string]string)
	}
	t.attrs[key] = value
	t.mu.Unlock()
}

// Attr returns the attribute stored under key, or "".
func (t *Trace) Attr(key string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attrs[key]
}

// Spans returns a copy of the recorded spans in End order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// String renders the recorded spans on one line.
func (t *Trace) String() string { return SpansString(t.Spans()) }

// ActiveSpan is a span between Start and End. It is owned by one goroutine;
// only the End that publishes it synchronizes with the trace.
type ActiveSpan struct {
	tr           *Trace
	name         string
	begin        time.Time
	states, rows int64
	excluded     time.Duration
}

// Counts attaches the meter readings the span accounted for (typically
// deltas of Meter.States/Rows across the stage). It returns the span so
// callers can chain Counts(...).End().
func (s *ActiveSpan) Counts(states, rows int64) *ActiveSpan {
	if s != nil {
		s.states, s.rows = states, rows
	}
	return s
}

// Exclude takes d out of the span's recorded duration: time that passed
// while it was open but belongs to another stage, which the caller records
// with Trace.Add. Chainable like Counts.
func (s *ActiveSpan) Exclude(d time.Duration) *ActiveSpan {
	if s != nil {
		s.excluded += d
	}
	return s
}

// End records the span on its trace with nanosecond timings. A span must
// be ended at most once; spans never ended are simply not recorded.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	now := time.Now()
	sp := Span{
		Name:    s.name,
		StartNS: s.begin.Sub(s.tr.t0).Nanoseconds(),
		DurNS:   (now.Sub(s.begin) - s.excluded).Nanoseconds(),
		States:  s.states,
		Rows:    s.rows,
	}
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, sp)
	s.tr.mu.Unlock()
}

// TotalStates sums the states recorded across spans — the budget
// consumption of the whole query as seen by its trace (available even when
// the query erred and no Response was produced).
func TotalStates(spans []Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.States
	}
	return n
}

// TotalRows sums the rows recorded across spans.
func TotalRows(spans []Span) int64 {
	var n int64
	for _, s := range spans {
		n += s.Rows
	}
	return n
}
