package pg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/rpq"
)

// errContext is a context that is never done but whose Err the test
// decides: a cancel, or a panic, that lands at a chosen tick of the meter.
type errContext struct {
	context.Context
	err func() error
}

func (c *errContext) Done() <-chan struct{} { return make(chan struct{}) }

func (c *errContext) Err() error { return c.err() }

// TestBatchReuseAfterStop: a level-loop batch stopped by a cancel, by the
// states budget or by a panic while it is still on the compact map, or by a
// cancel at the first tick after it moved onto the flat slabs, leaves words
// behind. Handed out again, as the pool would hand it, the batch must sweep
// exactly what a fresh one does: from the same sources, which on a fresh
// batch go flat; from later ones, which go flat at another level; and from
// the end of the path, which stay compact. A reused batch starts where its
// last sweep ended — on the map after the compact stops, on the slabs after
// the flat one and after a window that went flat — so both starts are
// reused dirty.
func TestBatchReuseAfterStop(t *testing.T) {
	g := gen.APath(2000, "a")
	k := NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a*"))), nil)
	tb := k.tables.Load()
	// 60 sources a window: each level discovers 60 (source, state) pairs, so
	// the meter's ticks, every CheckInterval, fall inside a level, where the
	// next level's words are half built.
	window := func(lo int) []int {
		srcs := make([]int, 60)
		for i := range srcs {
			srcs[i] = lo + i
		}
		return srcs
	}
	windows := [][]int{window(0), window(8), window(2000 - 60)}
	want := make([]Runs, len(windows))
	for i, srcs := range windows {
		b := &batch{}
		var err error
		if want[i], err = k.sweepBatch(tb, srcs, 0, b, nil); err != nil {
			t.Fatal(err)
		}
		if (b.flatAt >= 0) != (i < 2) {
			t.Fatalf("window %d moved onto the flat slabs at level %d: the fixture no longer has both sides", i, b.flatAt)
		}
	}
	canceledIf := func(stop func() bool) *Meter {
		return NewMeter(&errContext{context.Background(), func() error {
			if stop() {
				return context.Canceled
			}
			return nil
		}}, Budget{}, nil, nil)
	}
	for _, st := range []struct {
		name  string
		meter func(b *batch) *Meter
		flat  bool // where the batch is when it stops
	}{
		{"cancel while compact", func(*batch) *Meter { return canceledIf(func() bool { return true }) }, false},
		{"states budget while compact", func(*batch) *Meter {
			return NewMeter(context.Background(), Budget{MaxStates: 2 * CheckInterval}, nil, nil)
		}, false},
		{"panic while compact", func(*batch) *Meter {
			return NewMeter(&errContext{context.Background(), func() error { panic("stop") }}, Budget{}, nil, nil)
		}, false},
		{"cancel right after the switch", func(b *batch) *Meter { return canceledIf(func() bool { return b.flatAt >= 0 }) }, true},
	} {
		b := &batch{}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			_, err = k.sweepBatch(tb, windows[0], 0, b, st.meter(b))
			return err
		}()
		if err == nil || errors.Is(err, ErrBudgetExceeded) != (st.name == "states budget while compact") {
			t.Fatalf("%s: the batch stopped with %v", st.name, err)
		}
		if (b.flatAt >= 0) != st.flat || len(b.touched) == 0 || len(b.nextIDs) == 0 {
			t.Fatalf("%s: stopped at flatAt %d with %d states touched, %d in the next level: the fixture no longer tests the reset",
				st.name, b.flatAt, len(b.touched), len(b.nextIDs))
		}
		for i, srcs := range windows {
			if got, err := k.sweepBatch(tb, srcs, 0, b, nil); err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s, then window %d on the same batch: (%d pairs, %v), want %d", st.name, i, got.Len(), err, want[i].Len())
			}
		}
	}

	// Under a{4} the last state accepts and has no transition out, so the
	// batch counts the nodes a level reaches in it instead of queueing them.
	// The meter's first tick, after 256 of the window's 300 discoveries,
	// lands in the level that reaches them, with some of them counted. The
	// batch handed out again must report what a fresh one does — pairs and
	// telemetry — from the sources whose nodes were pending (every node its
	// last level reaches was counted by the stopped sweep) and from the
	// stopped window.
	sk := NewKernel(g, FromNFA(g, rpq.Compile(rpq.MustParse("a{4}"))), nil)
	if sk.sink < 0 {
		t.Fatal("a{4} has no sink: the fixture no longer tests the sink's reset")
	}
	stb := sk.tables.Load()
	sweep := func(b *batch, srcs []int) (Runs, string) {
		ss := &SweepStats{}
		got, err := sk.sweepBatch(stb, srcs, 0, b, NewMeter(context.Background(), Budget{}, nil, ss))
		if err != nil {
			t.Fatal(err)
		}
		return got, fmt.Sprintf("%+v", *ss.Snapshot())
	}
	for _, st := range []struct {
		name  string
		meter *Meter
	}{
		{"cancel", canceledIf(func() bool { return true })},
		{"states budget", NewMeter(context.Background(), Budget{MaxStates: 200}, nil, nil)},
	} {
		b := &batch{}
		if _, err := sk.sweepBatch(stb, windows[0], 0, b, st.meter); err == nil {
			t.Fatalf("%s: the sweep under a{4} was not stopped", st.name)
		}
		if len(b.sinks) == 0 {
			t.Fatalf("%s: the sweep under a{4} stopped with no sink node pending: the fixture no longer tests the reset", st.name)
		}
		var pending []int
		for _, v := range b.sinks {
			pending = append(pending, int(v)-4)
		}
		for _, srcs := range [][]int{pending, windows[0]} {
			wantRuns, wantStats := sweep(&batch{}, srcs)
			if got, stats := sweep(b, srcs); !reflect.DeepEqual(got, wantRuns) || stats != wantStats {
				t.Fatalf("%s under a{4}, then %d sources on the same batch:\n got %d pairs, %s\nwant %d pairs, %s",
					st.name, len(srcs), got.Len(), stats, wantRuns.Len(), wantStats)
			}
		}
	}
}
