package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRecordsSpansInEndOrder(t *testing.T) {
	tr := NewTrace()
	outer := tr.Start("kernel")
	time.Sleep(time.Millisecond)
	outer.Counts(100, 7).End()
	tr.Start("enumerate").End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "kernel" || spans[1].Name != "enumerate" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].DurNS < int64(time.Millisecond) {
		t.Errorf("kernel span duration = %dns, want >= 1ms", spans[0].DurNS)
	}
	if spans[0].States != 100 || spans[0].Rows != 7 {
		t.Errorf("kernel span counts = (%d, %d), want (100, 7)", spans[0].States, spans[0].Rows)
	}
	if got := TotalStates(spans); got != 100 {
		t.Errorf("TotalStates = %d, want 100", got)
	}
	if got := TotalRows(spans); got != 7 {
		t.Errorf("TotalRows = %d, want 7", got)
	}
	s := SpansString(spans)
	if !strings.Contains(s, "kernel=") || !strings.Contains(s, "states=100 rows=7") {
		t.Errorf("SpansString = %q", s)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Start("x").Counts(1, 1).End() // must not panic
	tr.Set("plan", "p")
	if tr.Attr("plan") != "" {
		t.Error("nil trace returned an attribute")
	}
	if tr.Spans() != nil {
		t.Error("nil trace returned spans")
	}
	if tr.String() != "" {
		t.Errorf("nil trace String = %q", tr.String())
	}
}

func TestTraceAttrs(t *testing.T) {
	tr := NewTrace()
	tr.Set("plan", "dir=fwd scan=indexed workers=1 est=12")
	tr.Set("plan", "dir=bwd scan=dense workers=4 est=99")
	if got := tr.Attr("plan"); got != "dir=bwd scan=dense workers=4 est=99" {
		t.Errorf("Attr(plan) = %q", got)
	}
	if got := tr.Attr("missing"); got != "" {
		t.Errorf("Attr(missing) = %q", got)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Start("kernel").Counts(1, 0).End()
				tr.Set("plan", "p")
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("spans = %d, want 800", got)
	}
	if got := TotalStates(tr.Spans()); got != 800 {
		t.Fatalf("TotalStates = %d, want 800", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.05, 99} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-99.0535) > 1e-9 {
		t.Fatalf("Sum = %g, want 99.0535", h.Sum())
	}
	// Bounds are le-inclusive: 0.001 lands in the first bucket.
	wantPerBucket := []int64{2, 1, 1}
	for i, want := range wantPerBucket {
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	if h.overflow.Load() != 1 {
		t.Errorf("overflow = %d, want 1", h.overflow.Load())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Fatalf("Sum = %g, want 8", h.Sum())
	}
}

func TestMetricWriterExposition(t *testing.T) {
	var b strings.Builder
	m := NewMetricWriter(&b)
	m.Counter("gq_accepted_total", "Queries admitted.", 42, nil)
	m.Gauge("gq_in_flight", "Queries running now.", 3, nil)
	m.Family("gq_graph_nodes", "Nodes per graph.", "gauge")
	m.Sample("gq_graph_nodes", 10, map[string]string{"graph": "diamond"})
	m.Sample("gq_graph_nodes", 20, map[string]string{"graph": "grid", "extra": "x"})
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	m.Histogram("gq_query_duration_seconds", "Latency.", h, nil)
	if err := m.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP gq_accepted_total Queries admitted.\n# TYPE gq_accepted_total counter\ngq_accepted_total 42\n",
		"# TYPE gq_in_flight gauge\ngq_in_flight 3\n",
		"gq_graph_nodes{graph=\"diamond\"} 10\n",
		"gq_graph_nodes{extra=\"x\",graph=\"grid\"} 20\n", // labels sorted by key
		"# TYPE gq_query_duration_seconds histogram\n",
		"gq_query_duration_seconds_bucket{le=\"0.1\"} 1\n",
		"gq_query_duration_seconds_bucket{le=\"1\"} 2\n",
		"gq_query_duration_seconds_bucket{le=\"+Inf\"} 3\n",
		"gq_query_duration_seconds_sum 5.55\n",
		"gq_query_duration_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

// TestAccumulatedSpans: time a caller measured inside an open span and
// handed to Trace.Add is taken out of that span by Exclude, so the two
// never count the same nanoseconds twice.
func TestAccumulatedSpans(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("kernel")
	time.Sleep(3 * time.Millisecond)
	sp.Exclude(2 * time.Millisecond).End()
	tr.Add("enumerate", 2*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "kernel" || spans[1].Name != "enumerate" {
		t.Fatalf("spans %v", spans)
	}
	if spans[0].Accumulated || !spans[1].Accumulated {
		t.Fatalf("accumulated flags: %+v", spans)
	}
	if k := time.Duration(spans[0].DurNS); k < time.Millisecond {
		t.Fatalf("kernel recorded %v of a ≥3 ms span with 2 ms excluded", k)
	}
	tr.Start("whole").Exclude(time.Hour).End()
	if d := tr.Spans()[2].DurNS; d >= 0 {
		t.Fatalf("a span with an hour excluded recorded %d ns", d)
	}
	if spans[1].DurNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("enumerate recorded %d ns, want the 2 ms it was handed", spans[1].DurNS)
	}
	var nilTrace *Trace
	nilTrace.Add("enumerate", time.Millisecond) // nil-safe like every Trace method
	var nilSpan *ActiveSpan
	nilSpan.Exclude(time.Millisecond).End()
}
