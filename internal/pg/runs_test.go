package pg

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// sortedRuns is the oracle runs is held to: the hit nodes sorted, each dealt
// to the sources in its word.
func sortedRuns(srcs []int, acc map[int]uint64) Runs {
	nodes := make([]int, 0, len(acc))
	for v := range acc {
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	var out Runs
	for i, u := range srcs {
		n := len(out.Tgt)
		for _, v := range nodes {
			if acc[v]>>uint(i)&1 != 0 {
				out.Tgt = append(out.Tgt, int32(v))
			}
		}
		if len(out.Tgt) > n {
			out.Src, out.End = append(out.Src, int32(u)), append(out.End, int32(len(out.Tgt)))
		}
	}
	return out
}

func sameRuns(a, b Runs) bool {
	return slices.Equal(a.Src, b.Src) && slices.Equal(a.End, b.End) && slices.Equal(a.Tgt, b.Tgt)
}

// TestBatchRunsAscending: a batch meets its hit nodes in ascending order by
// draining a two-level bitmap, never by sorting and never by reading a word
// per node, and counts each source's targets in byte lanes. On hand-made hit
// sets — one hit, hits in the last word only, a node count that is no
// multiple of 64 or of 4 096, every node hit, marks made in descending and
// in random order, acc words of 1–7, 8 and 64 sources, more than the 255
// dense hit nodes a lane counts before it is flushed, the same batch value
// reused from case to case — runs must equal the sort oracle and leave acc
// and the bitmap clear; on real sweeps (a clique, where every node is hit,
// and sparse-star, where a handful of 20 000 are), run on a batch a states
// budget had just stopped mid-sweep, it must equal one Kernel.Sweep per
// source.
func TestBatchRunsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := &batch{}
	// bits returns a word of k distinct random bits below width.
	bits := func(k, width int) (w uint64) {
		for _, i := range rng.Perm(width)[:k] {
			w |= 1 << uint(i)
		}
		return w
	}
	for _, fx := range []struct {
		name  string
		nodes int
		hits  func(nodes int) []int
		width int                    // sources in the batch; 0: 1–64 at random
		word  func(width int) uint64 // each hit node's acc word; nil: one to three random marks
	}{
		{"one hit", 5000, func(int) []int { return []int{4097} }, 0, nil},
		{"node 0 only", 64, func(int) []int { return []int{0} }, 0, nil},
		{"last word only", 2*4096 + 70, func(n int) []int { return []int{n - 1, n - 3, n - 70} }, 0, nil},
		{"last summary bit", 4096 + 1, func(n int) []int { return []int{n - 1} }, 0, nil},
		{"130 nodes, all hit", 130, func(n int) []int { return rng.Perm(n) }, 0, nil},
		{"descending marks", 9000, func(n int) []int { return []int{8999, 8191, 4096, 4095, 64, 63, 1} }, 0, nil},
		{"random tenth", 20000, func(n int) []int { return rng.Perm(n)[:n/10] }, 0, nil},
		{"nothing hit", 300, func(int) []int { return nil }, 0, nil},
		{"1-7 sources a word", 3000, func(n int) []int { return rng.Perm(n)[:n/3] }, batchWidth,
			func(width int) uint64 { return bits(1+rng.Intn(7), width) }},
		{"8 sources a word", 3000, func(n int) []int { return rng.Perm(n)[:n/2] }, batchWidth,
			func(width int) uint64 { return bits(8, width) }},
		{"one byte lane full", 2000, func(n int) []int { return rng.Perm(n)[:700] }, batchWidth,
			func(int) uint64 { return 0xff << (8 * uint(rng.Intn(8))) }},
		{"64 sources a word, 300 nodes", 300, func(n int) []int { return rng.Perm(n) }, batchWidth,
			func(int) uint64 { return ^uint64(0) }},
		{"64 sources a word, 1 000 of 9 000 nodes", 9000, func(n int) []int { return rng.Perm(n)[:1000] }, batchWidth,
			func(int) uint64 { return ^uint64(0) }},
		{"dense and sparse mixed, 37 sources", 5000, func(n int) []int { return rng.Perm(n)[:2000] }, 37,
			func(width int) uint64 { return bits([]int{1, 8, width}[rng.Intn(3)], width) }},
	} {
		width := fx.width
		if width == 0 {
			width = 1 + rng.Intn(batchWidth)
		}
		srcs := make([]int, width)
		for i := range srcs {
			srcs[i] = 1000 + 3*i
		}
		b.reset(levelLoop, fx.nodes, fx.nodes)
		acc := map[int]uint64{}
		for _, v := range fx.hits(fx.nodes) {
			if fx.word != nil {
				d := fx.word(width)
				b.accept(v, d)
				acc[v] |= d
				continue
			}
			for marks := 1 + rng.Intn(3); marks > 0; marks-- { // a node is hit again by later arrivals
				d := uint64(1) << uint(rng.Intn(len(srcs)))
				if rng.Intn(4) == 0 {
					d |= rng.Uint64() & (1<<uint(len(srcs)) - 1)
				}
				b.accept(v, d)
				acc[v] |= d
			}
		}
		got, err := b.runs(srcs)
		if want := sortedRuns(srcs, acc); err != nil || !sameRuns(got, want) {
			t.Errorf("%s: runs differ from the sort oracle (%v): %d pairs in %d runs, want %d in %d",
				fx.name, err, got.Len(), len(got.Src), want.Len(), len(want.Src))
		}
		dirty := func(w uint64) bool { return w != 0 }
		if slices.ContainsFunc(b.acc, dirty) || slices.ContainsFunc(b.hit, dirty) || slices.ContainsFunc(b.hitSum, dirty) || len(b.hits) != 0 {
			t.Errorf("%s: runs left acc or the hit bitmap set", fx.name)
		}
	}

	for _, fx := range []struct {
		name, query string
		g           *graph.Graph
		first       int
	}{
		{"clique-100", "a a*", gen.Clique(100, "a"), 8},
		{"sparse-star", "b*", gen.ScaleFree(20000, 4, 42), 8},
	} {
		k := NewKernel(fx.g, FromNFA(fx.g, rpq.Compile(rpq.MustParse(fx.query))), nil)
		srcs := make([]int, batchWidth)
		for i := range srcs {
			srcs[i] = fx.first + i
		}
		stopped := NewMeter(context.Background(), Budget{MaxStates: 70}, nil, nil)
		if _, err := k.sweepBatch(k.tables.Load(), srcs, 0, b, stopped); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: got %v, want the states budget to stop the batch", fx.name, err)
		}
		got, err := k.sweepBatch(k.tables.Load(), srcs, 0, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := k.NewScratch()
		run := 0
		for _, u := range srcs {
			vs, err := k.Sweep(u, sc, nil, false)
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
