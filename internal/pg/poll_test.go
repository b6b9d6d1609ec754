package pg

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// TestBatchPollsLevelThatDiscoversNothing: a level whose entries rediscover
// only what the batch has already seen ticks nothing, so its scan must
// still poll the meter. On a 200-clique under a*, 64 sources' third
// level scans 64 × 199 adjacency entries and discovers nothing. A context
// canceled as that level begins stops the scan within 4 096 entries plus
// one entry's degree — on the flat slabs (the bare clique) and on the
// compact map (the clique beside 300 isolated nodes).
func TestBatchPollsLevelThatDiscoversNothing(t *testing.T) {
	const clique, deg = 200, 199
	for _, tc := range []struct {
		name     string
		isolated int
		flat     bool
	}{{"flat", 0, true}, {"compact", 300, false}} {
		t.Run(tc.name, func(t *testing.T) {
			b := graph.NewBuilder()
			for i := 0; i < clique+tc.isolated; i++ {
				b.AddNode(graph.NodeID(fmt.Sprintf("v%d", i)), "", nil)
			}
			for i := 0; i < clique; i++ {
				for j := 0; j < clique; j++ {
					if i != j {
						b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d_%d", i, j)), "a",
							graph.NodeID(fmt.Sprintf("v%d", i)), graph.NodeID(fmt.Sprintf("v%d", j)), nil)
					}
				}
			}
			g := b.MustBuild()
			k := NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a*"))), nil)
			tb := k.tables.Load()
			srcs := make([]int, 64)
			for i := range srcs {
				srcs[i] = i
			}

			full := &SweepStats{}
			bt := &batch{}
			if _, err := k.sweepBatch(tb, srcs, 0, bt, NewMeter(context.Background(), Budget{}, nil, full)); err != nil {
				t.Fatal(err)
			}
			levels := full.Snapshot().Levels
			if len(levels) < 3 || levels[2].Discovered != 0 || levels[2].Edges <= 1<<12+deg {
				t.Fatalf("level 2 must examine more than %d entries and discover nothing: %+v", 1<<12+deg, levels)
			}
			if (bt.flatAt >= 0) != tc.flat {
				t.Fatalf("flatAt = %d: the fixture no longer runs on the %s side", bt.flatAt, tc.name)
			}

			ss := &SweepStats{}
			m := NewMeter(&errContext{context.Background(), func() error {
				if len(ss.Snapshot().Levels) >= 2 {
					return context.Canceled
				}
				return nil
			}}, Budget{}, nil, ss)
			if _, err := k.sweepBatch(tb, srcs, 0, &batch{}, m); !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			snap := ss.Snapshot()
			after := snap.Edges
			for _, l := range snap.Levels {
				after -= l.Edges
			}
			if len(snap.Levels) != 2 {
				t.Fatalf("the scan ran the level that discovers nothing to its end before it polled: %+v", snap.Levels)
			}
			if after > 1<<12+deg {
				t.Fatalf("the cancel landed after %d entries of the level, want at most %d", after, 1<<12+deg)
			}
		})
	}
}

// TestStoppedSweepLeavesTheBuy: a sweep stopped by its meter deposits what
// it rented from the label index but builds no neighbor table, which would
// only delay the stopped query's return (on a cold clique-400 kernel under
// a{200} the build took ~30 ms past a deadline under -race). The next sweep
// that rents buys with the deposit. One batch from every node of a
// 64-clique rents what the table costs at its first level; the cancel lands
// at the batch's last poll, its closing tick.
func TestStoppedSweepLeavesTheBuy(t *testing.T) {
	kernel := func() *Kernel {
		g := gen.Clique(64, "a") // a chain of its own: nothing bought yet
		return NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a+"))), nil)
	}
	srcs := make([]int, 64)
	for i := range srcs {
		srcs[i] = i
	}
	sweep := func(k *Kernel, m *Meter) error {
		_, err := k.sweepBatch(k.tables.Load(), srcs, 0, &batch{}, m)
		return err
	}
	polls := 0
	if err := sweep(kernel(), NewMeter(&errContext{context.Background(), func() error { polls++; return nil }}, Budget{}, nil, nil)); err != nil {
		t.Fatal(err)
	}
	k := kernel()
	if rentedSlots(k) == 0 {
		t.Fatal("a fresh graph's kernel must start renting the label index")
	}
	calls := 0
	m := NewMeter(&errContext{context.Background(), func() error {
		if calls++; calls == polls {
			return context.Canceled
		}
		return nil
	}}, Budget{}, nil, nil)
	if err := sweep(k, m); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if rentedSlots(k) == 0 {
		t.Fatal("the stopped sweep bought a neighbor table")
	}
	if err := sweep(k, nil); err != nil {
		t.Fatal(err)
	}
	if n := rentedSlots(k); n != 0 {
		t.Fatalf("%d slots still rent after the next sweep", n)
	}
}

// TestBatchPollsWhereSinkStatesWere: the batch counts the states it reaches
// in a kernel's sink instead of queueing them, and must poll the meter where
// the scan met them, no more and no less. Under `a* b` x's 300 a edges make
// the scan of (x, after a) tick the meter past a budget of 100. When its
// level's frontier ends in a sink state — s's b edge comes after its a edge
// — the poll that sink state's entry made trips the budget inside that
// level; when it starts with one — p's b edge is scanned before q's a edge —
// the level ends unpolled and the next level's first entry trips it.
func TestBatchPollsWhereSinkStatesWere(t *testing.T) {
	b := graph.NewBuilder()
	for _, v := range []string{"s", "p", "q", "x", "y"} {
		b.AddNode(graph.NodeID(v), "", nil)
	}
	edge := func(id, label, u, v string) {
		b.AddEdge(graph.EdgeID(id), label, graph.NodeID(u), graph.NodeID(v), nil)
	}
	edge("sx", "a", "s", "x")
	edge("sy", "b", "s", "y")
	edge("py", "b", "p", "y")
	edge("qx", "a", "q", "x")
	for i := 0; i < 300; i++ {
		z := fmt.Sprintf("z%d", i)
		b.AddNode(graph.NodeID(z), "", nil)
		edge("x"+z, "a", "x", z)
	}
	g := b.MustBuild()
	k := NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a* b"))), nil)
	for _, tc := range []struct {
		sources []string
		levels  int // the level rows recorded before the budget trips
	}{{[]string{"s"}, 1}, {[]string{"p", "q"}, 2}} {
		var srcs []int
		for _, u := range tc.sources {
			srcs = append(srcs, g.MustNode(graph.NodeID(u)))
		}
		ss := &SweepStats{}
		_, err := k.sweepBatch(k.tables.Load(), srcs, 0, &batch{}, NewMeter(context.Background(), Budget{MaxStates: 100}, nil, ss))
		if snap := ss.Snapshot(); !errors.Is(err, ErrBudgetExceeded) || len(snap.Levels) != tc.levels || snap.States < 300 {
			t.Fatalf("sources %v: err %v, %d states, levels %+v; want the budget to trip after %d levels", tc.sources, err, snap.States, snap.Levels, tc.levels)
		}
	}
}
