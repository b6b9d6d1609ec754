package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

func dump(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func addEdgeMut(i int, src, tgt string) graph.Mutation {
	return graph.Mutation{Op: graph.MutAddEdge, ID: fmt.Sprintf("m%d", i), Label: "a", Src: src, Tgt: tgt}
}

func TestLoadGetDelete(t *testing.T) {
	s := New(Config{})
	g := gen.Clique(5, "a")
	if _, err := s.Load("g", g, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("g", g, false); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Load err = %v, want ErrExists", err)
	}
	if _, err := s.Load("ro", g, true); err != nil {
		t.Fatal(err)
	}
	h, ok := s.Get("g")
	if !ok || h.Name() != "g" || h.ReadOnly() {
		t.Fatalf("Get(g) = %v, %v", h, ok)
	}
	if names := s.Names(); len(names) != 2 || names[0] != "g" || names[1] != "ro" {
		t.Fatalf("Names = %v", names)
	}
	if err := s.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(nope) = %v, want ErrNotFound", err)
	}
	if err := s.Delete("ro"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Delete(ro) = %v, want ErrReadOnly", err)
	}
	if err := s.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("g"); ok {
		t.Fatal("deleted graph still resolves")
	}
	st := s.Stats()
	if st.Loads != 2 || st.Deletes != 1 || st.Graphs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMutateVersionsAndPreconditions(t *testing.T) {
	s := New(Config{})
	h, err := s.Load("g", gen.Cycle(4, "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	s0 := h.Snapshot()
	if s0.Version != 1 || s0.Rev != 1 {
		t.Fatalf("initial snapshot v%d r%d", s0.Version, s0.Rev)
	}
	s1, err := h.Mutate([]graph.Mutation{addEdgeMut(0, "v0", "v3")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != 2 || s1.Rev != 2 {
		t.Fatalf("after commit: v%d r%d, want v2 r2", s1.Version, s1.Rev)
	}
	// Precondition on a stale version fails and changes nothing.
	if _, err := h.Mutate([]graph.Mutation{addEdgeMut(1, "v0", "v1")}, 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale precondition err = %v", err)
	}
	if h.Snapshot() != s1 {
		t.Fatal("failed precondition replaced the snapshot")
	}
	// Matching precondition succeeds.
	if _, err := h.Mutate([]graph.Mutation{addEdgeMut(1, "v0", "v1")}, 2); err != nil {
		t.Fatal(err)
	}
	// A failing batch is atomic: snapshot unchanged.
	before := h.Snapshot()
	if _, err := h.Mutate([]graph.Mutation{{Op: graph.MutRemoveEdge, ID: "nope"}}, 0); err == nil {
		t.Fatal("bad batch accepted")
	}
	if h.Snapshot() != before {
		t.Fatal("failed batch replaced the snapshot")
	}
	// Old snapshots keep serving their own state.
	if s0.G.NumLiveEdges() != 4 || s1.G.NumLiveEdges() != 5 {
		t.Fatalf("old snapshots drifted: %d, %d", s0.G.NumLiveEdges(), s1.G.NumLiveEdges())
	}

	ro, err := s.Load("ro", gen.Cycle(3, "a"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Mutate([]graph.Mutation{addEdgeMut(9, "v0", "v1")}, 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Mutate err = %v", err)
	}
}

func TestNoCompactionBelowThreshold(t *testing.T) {
	s := New(Config{CompactThreshold: 100})
	h, err := s.Load("g", gen.Clique(6, "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := h.Mutate([]graph.Mutation{addEdgeMut(i, "v0", "v1")}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st := h.Status()
	// The write path performed zero full-CSR rebuilds: every commit is an
	// overlay, the delta depth equals the op count, and the compaction
	// counter never moved.
	if st.Compactions != 0 {
		t.Fatalf("compactions = %d below threshold", st.Compactions)
	}
	if st.DeltaOps != 50 {
		t.Fatalf("delta ops = %d, want 50", st.DeltaOps)
	}
	if st.Version != 51 || st.Rev != 51 {
		t.Fatalf("v%d r%d, want v51 r51", st.Version, st.Rev)
	}
}

func TestCompactionFoldsChain(t *testing.T) {
	s := New(Config{CompactThreshold: 10})
	h, err := s.Load("g", gen.Clique(6, "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	// The tenth commit starts the background compaction, which may publish
	// before this goroutine reads the handle again: pre is the committed,
	// uncompacted version the commit returned.
	var pre *Snapshot
	for i := 0; i < 10; i++ {
		if pre, err = h.Mutate([]graph.Mutation{addEdgeMut(i, "v0", "v1")}, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, pre.G)
	s.Close() // wait for the background compaction

	post := h.Snapshot()
	if post.Version != pre.Version {
		t.Fatalf("compaction changed Version: %d -> %d", pre.Version, post.Version)
	}
	if post.Rev <= pre.Rev {
		t.Fatalf("compaction did not bump Rev: %d -> %d", pre.Rev, post.Rev)
	}
	if post.G.DeltaOps() != 0 {
		t.Fatalf("compacted snapshot has %d delta ops", post.G.DeltaOps())
	}
	if got := dump(t, post.G); !bytes.Equal(got, want) {
		t.Fatal("compaction changed the observable graph state")
	}
	if st := h.Status(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	// The pre-compaction snapshot still serves its own state.
	if got := dump(t, pre.G); !bytes.Equal(got, want) {
		t.Fatal("pinned pre-compaction snapshot drifted")
	}
}

// TestConcurrentMutateAndRead hammers one chain with a writer, concurrent
// snapshot readers, and a low compaction threshold, under -race in CI. Each
// reader validates internal consistency of whatever snapshot it grabbed.
func TestConcurrentMutateAndRead(t *testing.T) {
	s := New(Config{CompactThreshold: 16})
	h, err := s.Load("g", gen.Clique(8, "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	const commits = 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := h.Snapshot()
				snap.Acquire()
				g := snap.G
				live := 0
				for ei := 0; ei < g.NumEdges(); ei++ {
					if g.EdgeAlive(ei) {
						live++
					}
				}
				if live != g.NumLiveEdges() {
					panic(fmt.Sprintf("snapshot v%d: %d live edges iterated, %d counted",
						snap.Version, live, g.NumLiveEdges()))
				}
				for n := 0; n < g.NumNodes(); n++ {
					for _, ei := range g.Out(n) {
						if !g.EdgeAlive(ei) || g.EdgeSrc(ei) != n {
							panic("adjacency row holds a dead or foreign edge")
						}
					}
				}
				snap.Release()
			}
		}()
	}
	for i := 0; i < commits; i++ {
		muts := []graph.Mutation{addEdgeMut(i, "v1", "v2")}
		if i%3 == 2 {
			muts = []graph.Mutation{{Op: graph.MutRemoveEdge, ID: fmt.Sprintf("m%d", i-1)}}
		}
		if _, err := h.Mutate(muts, 0); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	s.Close()
	st := h.Status()
	if st.Version != commits+1 {
		t.Fatalf("version = %d, want %d", st.Version, commits+1)
	}
	if st.Compactions == 0 {
		t.Fatal("no compaction ran despite a low threshold")
	}
	if st.Pins != 0 {
		t.Fatalf("pins leaked: %d", st.Pins)
	}
	if got, want := s.Stats().MutationBatches, int64(commits); got != want {
		t.Fatalf("mutation batches = %d, want %d", got, want)
	}
}

func TestPinsTrackAcquireRelease(t *testing.T) {
	s := New(Config{})
	h, err := s.Load("g", gen.Cycle(3, "a"), false)
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	snap.Acquire()
	snap.Acquire()
	if p := h.Status().Pins; p != 2 {
		t.Fatalf("pins = %d, want 2", p)
	}
	snap.Release()
	snap.Release()
	if p := h.Status().Pins; p != 0 {
		t.Fatalf("pins = %d, want 0", p)
	}
}
