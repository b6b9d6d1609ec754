package core

import (
	"testing"

	"graphquery/internal/gen"
)

// TestSetGraphInvalidatesPlans swaps the engine's graph and checks the same
// query text re-resolves against the new revision: compiled RPQ products
// bind the graph, so a stale cache hit would silently answer from the old
// snapshot.
func TestSetGraphInvalidatesPlans(t *testing.T) {
	e := New(gen.Cycle(3, "a"))
	pairs, err := e.Pairs("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("cycle-3: %d pairs, want 3", len(pairs))
	}
	if rev := e.GraphRev(); rev != 1 {
		t.Fatalf("initial rev = %d", rev)
	}

	e.SetGraph(gen.Cycle(5, "a"), 2)
	pairs, err = e.Pairs("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("after SetGraph: %d pairs, want 5 (stale plan served?)", len(pairs))
	}
	if rev := e.GraphRev(); rev != 2 {
		t.Fatalf("rev after SetGraph = %d", rev)
	}
}

// TestSetGraphPinnedAcquiresPerQuery checks every query entry point takes
// and releases exactly one pin on the installed state.
func TestSetGraphPinnedAcquiresPerQuery(t *testing.T) {
	e := New(gen.Cycle(3, "a"))
	var acquires, releases int
	e.SetGraphPinned(gen.Cycle(4, "a"), 2, func() func() {
		acquires++
		return func() { releases++ }
	})
	if _, err := e.Pairs("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(Request{Query: "a", From: "v0", To: "v1"}); err != nil {
		t.Fatal(err)
	}
	if acquires != 2 || releases != 2 {
		t.Fatalf("pin acquires/releases = %d/%d, want 2/2", acquires, releases)
	}
}

// TestGraphReturnsCurrent pins Graph() to the swapped-in value.
func TestGraphReturnsCurrent(t *testing.T) {
	g1 := gen.Cycle(3, "a")
	g2 := gen.Cycle(4, "a")
	e := New(g1)
	if e.Graph() != g1 {
		t.Fatal("Graph() != initial graph")
	}
	e.SetGraph(g2, 2)
	if e.Graph() != g2 {
		t.Fatal("Graph() != swapped graph")
	}
}

// TestStaleRevisionPlansAreReplacedInPlace: a query text owns one plan-cache
// slot however many revisions go by. The revision used to be part of the
// key, so every commit left an unreachable entry behind — each holding a
// whole superseded graph — until 256 newer inserts pushed it out.
func TestStaleRevisionPlansAreReplacedInPlace(t *testing.T) {
	e := New(gen.Cycle(3, "a"))
	e.SetPlanCacheCapacity(2)
	for rev := uint64(2); rev <= 50; rev++ {
		n := 3 + int(rev%4)
		e.SetGraph(gen.Cycle(n, "a"), rev)
		for i := 0; i < 2; i++ { // a miss that replaces the old revision's plan, then a hit
			pairs, err := e.Pairs("a")
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != n {
				t.Fatalf("rev %d: %d pairs, want %d (stale plan served?)", rev, len(pairs), n)
			}
		}
	}
	if s := e.CacheStats(); s.Size != 1 || s.Evictions != 0 || s.Misses != 49 || s.Hits != 49 {
		t.Fatalf("49 revisions of one query text: %+v; want one entry, no evictions, a miss and a hit per revision", s)
	}

	// A reader still pinned to an older snapshot compiles for itself and
	// leaves the newer revision's entry alone.
	build := func(tag string) func(string) (string, error) {
		return func(string) (string, error) { return tag, nil }
	}
	newer, older := &graphState{rev: 60}, &graphState{rev: 59}
	for _, step := range []struct {
		gs   *graphState
		tag  string
		want string
	}{
		{newer, "built at 60", "built at 60"},
		{older, "built at 59", "built at 59"}, // a miss: the entry is another revision's
		{newer, "rebuilt at 60", "built at 60"},
		{older, "rebuilt at 59", "rebuilt at 59"},
	} {
		got, err := cached(e, step.gs, "test", "q", build(step.tag))
		if err != nil || got != step.want {
			t.Fatalf("rev %d: cached returned %q, %v; want %q", step.gs.rev, got, err, step.want)
		}
	}
}
