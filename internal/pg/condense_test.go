package pg

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// twoCycles is a short a-cycle on nodes [0, short) and a long one on the
// rest: batch 0's sources sit on the short one.
func twoCycles(short, n int) *graph.Graph {
	b := graph.NewBuilder()
	id := func(i int) graph.NodeID { return graph.NodeID("n" + strconv.Itoa(i)) }
	for i := 0; i < n; i++ {
		b.AddNode(id(i), "", nil)
	}
	for i := 0; i < n; i++ {
		next := i + 1
		switch next {
		case short:
			next = 0
		case n:
			next = short
		}
		b.AddEdge(graph.EdgeID("e"+string(id(i))), "a", id(i), id(next), nil)
	}
	return b.MustBuild()
}

// TestCondenseStopsAtChargedStates holds the build to its bound, with the
// numbers the rule promises to report. On two disjoint cycles of 40 and 360
// nodes under `a* a*` (three automaton states) batch 0's eight sources
// discover 81 states each, 648 together: more than the 400 roots, so the
// build starts, and fewer than the 1 200 reachable states, so it must stop
// — having numbered no more than 648 — and the call stays on the level loop
// and is exact. The scratch it dirtied then builds the whole condensation
// and is the one a fresh scratch builds.
func TestCondenseStopsAtChargedStates(t *testing.T) {
	g := twoCycles(40, 400)
	nfa := rpq.Compile(rpq.MustParse("a* a*"))
	var c Counters
	k := NewKernel(g, FromNFA(g, nfa), &c)

	m := NewMeter(context.Background(), Budget{MaxStates: 1 << 40}, nil, nil)
	got := 0
	if err := k.SweepAll(1, m, Plan{}, true, func(part Runs) error { got += part.Len(); return nil }); err != nil {
		t.Fatal(err)
	}
	if n := c.Snapshot().CondensationsBuilt; n != 0 {
		t.Fatalf("%d condensations built from 648 charged states for a product of 1 200", n)
	}
	if want := int64(40*81 + 360*721); m.States() != want || got != 40*40+360*360 {
		t.Fatalf("level loop after the stopped build: %d states, %d pairs; want %d, %d", m.States(), got, want, 40*40+360*360)
	}

	cd := getCondensation()
	for _, limit := range []int{399, 400, 648, 1199} {
		ok, err := cd.build(k, limit, nil)
		if ok || err != nil || len(cd.ids) > limit {
			t.Fatalf("limit %d: build returned (%v, %v) having numbered %d states; want it stopped at the limit", limit, ok, err, len(cd.ids))
		}
	}
	if ok, err := cd.build(k, 1200, nil); !ok || err != nil {
		t.Fatalf("limit 1200 on the stopped scratch: (%v, %v), want the whole condensation", ok, err)
	}
	fresh := &condensation{}
	if ok, err := fresh.build(k, 1200, nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	// Every start state is a component of its own, and each cycle is one
	// component per position of a* a*.
	if len(cd.ids) != 1200 || len(cd.size) != 400+4 || cd.largest != 360 {
		t.Fatalf("%d states in %d components, largest %d; want 1200 in 404, largest 360", len(cd.ids), len(cd.size), cd.largest)
	}
	if !slices.Equal(cd.comp[:1200], fresh.comp[:1200]) || !slices.Equal(cd.size, fresh.size) ||
		!slices.Equal(cd.succOff, fresh.succOff) || !slices.Equal(cd.succ, fresh.succ) ||
		!slices.Equal(cd.accOff, fresh.accOff) || !slices.Equal(cd.accNode, fresh.accNode) {
		t.Fatal("a scratch whose last build was stopped builds a different condensation than a fresh one")
	}
	for rank := range cd.size {
		for _, to := range cd.succ[cd.succOff[rank]:cd.succOff[rank+1]] {
			if int(to) <= rank {
				t.Fatalf("DAG edge %d → %d does not point to a higher rank", rank, to)
			}
		}
	}
}

// TestCondensedBatchSlabsClearOnEntry: a condensed batch stopped by its
// meter leaves seen words and pending bits behind; the same batch value must
// then serve the level loop and the condensed loop exactly.
func TestCondensedBatchSlabsClearOnEntry(t *testing.T) {
	g := gen.ScaleFree(400, 3, 5)
	nfa := rpq.Compile(rpq.MustParse("a* b a*"))
	k := NewKernel(g, FromNFA(g, nfa), nil)
	cd := &condensation{}
	if ok, err := cd.build(k, k.NumProductStates(), nil); !ok || err != nil {
		t.Fatal(ok, err)
	}
	srcs := make([]int, batchWidth)
	for i := range srcs {
		srcs[i] = 100 + i
	}
	want, err := k.sweepBatch(k.tables.Load(), srcs, 0, &batch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &batch{}
	stopped := NewMeter(context.Background(), Budget{MaxStates: 2 * CheckInterval}, nil, nil)
	if _, err := k.sweepCondensed(cd, srcs, 0, b, stopped); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want the states budget to stop the batch", err)
	}
	if len(b.touched) == 0 || !slices.ContainsFunc(b.pend, func(w uint64) bool { return w != 0 }) {
		t.Fatal("the stopped batch left nothing behind: the fixture no longer tests the reset")
	}
	if got, err := k.sweepCondensed(cd, srcs, 0, b, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("condensed batch on a dirty slab: (%d pairs, %v), want %d", got.Len(), err, want.Len())
	}
	if _, err := k.sweepCondensed(cd, srcs, 0, b, NewMeter(context.Background(), Budget{MaxStates: 2 * CheckInterval}, nil, nil)); err == nil {
		t.Fatal("second stop did not trip")
	}
	if got, err := k.sweepBatch(k.tables.Load(), srcs, 0, b, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("level-loop batch on a dirty slab: (%d pairs, %v), want %d", got.Len(), err, want.Len())
	}
}

// TestStatesBudgetBoundsTheBuild: on a 20 000-node graph a 1 000-state
// budget ends an all-pairs a* inside batch 0, after O(budget) work — the
// build, which may number only what the meter has been charged, never
// starts.
func TestStatesBudgetBoundsTheBuild(t *testing.T) {
	g := gen.ScaleFree(20000, 4, 1)
	var c Counters
	k := NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a*"))), &c)
	m := NewMeter(context.Background(), Budget{MaxStates: 1000}, nil, nil)
	err := k.SweepAll(1, m, Plan{}, true, func(Runs) error { return nil })
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("got %v, want a states BudgetError", err)
	}
	snap := c.Snapshot()
	// The level loop polls between frontier entries, and one entry on a hub
	// advances eight sources over hundreds of neighbors.
	if m.States() > 4*1000 || snap.CondensationsBuilt != 0 || snap.EdgesScanned > 4*1000 {
		t.Fatalf("budget of 1000 states: %d charged, %d condensations, %d adjacency entries examined", m.States(), snap.CondensationsBuilt, snap.EdgesScanned)
	}
}
