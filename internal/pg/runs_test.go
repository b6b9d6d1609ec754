package pg

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// sparseRing is n nodes of which only the first 64 have edges: an a-ring
// with a chord every fifth node, so their runs differ in length and every
// target is one of the 64.
func sparseRing(n int) *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID("n" + strconv.Itoa(i)) }
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	for i := 0; i < 64; i++ {
		b.AddEdge(graph.EdgeID("r"+strconv.Itoa(i)), "a", id(i), id((i+1)%64), nil)
		if i%5 == 0 {
			b.AddEdge(graph.EdgeID("c"+strconv.Itoa(i)), "a", id(i), id((i+7)%64), nil)
		}
	}
	return b.MustBuild()
}

// TestBatchRunsSameEitherWalk: a batch's runs are found by walking the acc
// slab when it hit one node in denseHits or more and by sorting its hit list
// below that; the rule picks the walk on a clique and on the graph that sits
// exactly on the switch-over, the sort on sparse-star and one node past the
// switch-over, and on each the other way renders the same Runs — which are
// what one Kernel.Sweep per source finds.
func TestBatchRunsSameEitherWalk(t *testing.T) {
	for _, fx := range []struct {
		name, query string
		g           *graph.Graph
		first       int
		dense       bool
	}{
		{"clique-100", "a a*", gen.Clique(100, "a"), 8, true},
		{"sparse-star", "b*", gen.ScaleFree(20000, 4, 42), 8, false},
		{"at the switch-over", "a a?", sparseRing(64 * denseHits), 0, true},
		{"one node past it", "a a?", sparseRing(64*denseHits + denseHits), 0, false},
	} {
		k := NewKernel(fx.g, FromNFA(fx.g, rpq.Compile(rpq.MustParse(fx.query))), nil)
		n := fx.g.NumNodes()
		srcs := make([]int, batchWidth)
		for i := range srcs {
			srcs[i] = fx.first + i
		}
		b := &batch{}
		got, err := k.sweepBatch(srcs, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.dense(n) != fx.dense {
			t.Errorf("%s: %d of %d nodes hit, dense = %v, want %v", fx.name, len(b.hits), n, b.dense(n), fx.dense)
		}
		other, err := b.runs(srcs, n, !fx.dense)
		if err != nil || !reflect.DeepEqual(got, other) {
			t.Errorf("%s: the two walks differ (%v): %d pairs in %d runs against %d in %d",
				fx.name, err, got.Len(), len(got.Src), other.Len(), len(other.Src))
		}
		sc := k.NewScratch()
		run := 0
		for _, u := range srcs {
			vs, err := k.Sweep(u, sc, nil, Plan{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) == 0 {
				continue
			}
			want := make([]int32, len(vs))
			for i, v := range vs {
				want[i] = int32(v)
			}
			if run >= len(got.Src) || got.Src[run] != int32(u) || !slices.Equal(got.Targets(run), want) {
				t.Fatalf("%s: run %d is not source %d with targets %v", fx.name, run, u, want)
			}
			run++
		}
		if run != len(got.Src) || run == 0 {
			t.Errorf("%s: %d runs, the per-source sweeps found %d", fx.name, len(got.Src), run)
		}
	}
}

// TestRunsFindHead: Find names the run a pair number falls in and Head cuts
// at a run boundary.
func TestRunsFindHead(t *testing.T) {
	r := NewRuns(3, 6)
	copy(r.Src, []int32{4, 7, 9})
	copy(r.End, []int32{1, 4, 6})
	copy(r.Tgt, []int32{2, 0, 5, 8, 1, 3})
	for row, want := range []int{0, 1, 1, 1, 2, 2, 3} {
		if got := r.Find(row); got != want {
			t.Errorf("Find(%d) = %d, want %d", row, got, want)
		}
	}
	if got := r.Targets(1); !slices.Equal(got, []int32{0, 5, 8}) {
		t.Errorf("Targets(1) = %v", got)
	}
	if h := r.Head(2); h.Len() != 4 || len(h.Src) != 2 || r.Head(0).Len() != 0 || r.Head(3).Len() != 6 {
		t.Errorf("Head(2) = %+v", h)
	}
}
