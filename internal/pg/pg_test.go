package pg_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"graphquery/internal/automata"
	"graphquery/internal/gen"
	"graphquery/internal/pg"
)

func TestNewMeterNil(t *testing.T) {
	if m := pg.NewMeter(context.Background(), pg.Budget{}, nil, nil); m != nil {
		t.Fatalf("unbudgeted background meter should be nil, got %v", m)
	}
	var m *pg.Meter // nil meter: every operation is a no-op that succeeds
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(1000); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRows(1000); err != nil {
		t.Fatal(err)
	}
}

func TestMeterBudget(t *testing.T) {
	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 100}, nil, nil)
	if err := m.Tick(100); err != nil {
		t.Fatal(err)
	}
	err := m.Tick(1)
	if !errors.Is(err, pg.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *pg.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" || be.Limit != 100 {
		t.Fatalf("want states BudgetError with limit 100, got %#v", err)
	}
}

func TestMeterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := pg.NewMeter(ctx, pg.Budget{}, nil, nil)
	if m == nil {
		t.Fatal("cancellable context should yield a meter")
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	cancel()
	err := m.Check()
	if !errors.Is(err, pg.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

// TestTicker verifies the amortized instrument charges the meter in
// CheckInterval batches plus an exact remainder, and mirrors the total
// into the counters.
func TestTicker(t *testing.T) {
	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: pg.CheckInterval + 50}, nil, nil)
	var c pg.Counters
	tick := pg.NewTicker(m, &c)
	for i := 0; i < pg.CheckInterval+10; i++ {
		if err := tick.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := tick.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.States(); got != int64(pg.CheckInterval+10) {
		t.Fatalf("meter states = %d, want %d", got, pg.CheckInterval+10)
	}
	if got := c.Snapshot().StatesExpanded; got != int64(pg.CheckInterval+10) {
		t.Fatalf("counter states = %d, want %d", got, pg.CheckInterval+10)
	}

	// Exceeding the budget surfaces at a batch boundary.
	tick = pg.NewTicker(m, &c)
	var err error
	for i := 0; err == nil && i < 2*pg.CheckInterval; i++ {
		err = tick.Step()
	}
	if err == nil {
		err = tick.Flush()
	}
	if !errors.Is(err, pg.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// collect runs the fan-out with an appending emit: the buffered form every
// whole-result caller (eval, twoway, crpq) uses.
func collect(n, workers int, fn func(i int, _ struct{}) ([]int, error)) ([]int, error) {
	var out []int
	err := pg.ForEachEmit(n, workers, nil, nil, fn, func(part []int) error {
		out = append(out, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestForEachDeterministic(t *testing.T) {
	fn := func(i int, _ struct{}) ([]int, error) {
		return []int{2 * i, 2*i + 1}, nil
	}
	want, err := collect(100, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 16} {
		got, err := collect(100, workers, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v != sequential %v", workers, got, want)
		}
	}
}

func TestForEachError(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		_, err := collect(64, workers, func(i int, _ struct{}) ([]int, error) {
			if i == 33 {
				return nil, boom
			}
			return []int{i}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want boom, got %v", workers, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	out, err := collect(0, 4, func(i int, _ struct{}) ([]int, error) {
		return []int{i}, nil
	})
	if err != nil || out != nil {
		t.Fatalf("empty fan-out: got (%v, %v), want (nil, nil)", out, err)
	}
}

// TestForEachEmitMatchesForEach: the emitted sequence must be identical to
// the plain sequential loop's for any worker count, including with the
// in-flight window exercised, and every part — empty ones too — reaches emit,
// once.
func TestForEachEmitMatchesForEach(t *testing.T) {
	fn := func(i int, _ struct{}) ([]int, error) {
		if i%7 == 0 {
			return nil, nil
		}
		return []int{3 * i, 3*i + 1}, nil
	}
	var want []int
	for i := 0; i < 200; i++ {
		part, _ := fn(i, struct{}{})
		want = append(want, part...)
	}
	for _, workers := range []int{1, 2, 4, 16} {
		var got []int
		calls := 0
		err := pg.ForEachEmit(200, workers, nil, nil, fn, func(part []int) error {
			calls++
			got = append(got, part...)
			return nil
		})
		if err != nil || calls != 200 {
			t.Fatalf("workers=%d: %v after %d emits, want all 200", workers, err, calls)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: emitted %v != %v", workers, got, want)
		}
	}
}

// TestForEachEmitErrors: both an fn error and an emit error stop the pool
// and surface; the call must join its goroutines either way (the race
// detector enforces that here).
func TestForEachEmitErrors(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, workers := range []int{1, 4} {
		err := pg.ForEachEmit(64, workers, nil, nil, func(i int, _ struct{}) ([]int, error) {
			if i == 33 {
				return nil, boom
			}
			return []int{i}, nil
		}, func([]int) error { return nil })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d fn error: want boom, got %v", workers, err)
		}
		emitted := 0
		err = pg.ForEachEmit(64, workers, nil, nil, func(i int, _ struct{}) ([]int, error) {
			return []int{i}, nil
		}, func(part []int) error {
			if emitted++; emitted == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d emit error: want boom, got %v", workers, err)
		}
	}
}

// TestForEachEmitPanic: a panic in fn or in emit — on a worker goroutine,
// where nothing above could recover it, or on the caller's in the
// sequential loop — becomes the call's error, scratches are released, and
// the pool is joined.
func TestForEachEmitPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, site := range []string{"fn", "emit"} {
			var got, put atomic.Int32
			err := pg.ForEachEmit(64, workers,
				func() int { got.Add(1); return 0 },
				func(int) { put.Add(1) },
				func(i int, _ int) ([]int, error) {
					if site == "fn" && i == 33 {
						panic("boom")
					}
					return []int{i}, nil
				},
				func(part []int) error {
					if site == "emit" && part[0] == 33 {
						panic("boom")
					}
					return nil
				})
			var panicked *pg.PanicError
			if !errors.As(err, &panicked) || panicked.Value != "boom" || len(panicked.Stack) == 0 {
				t.Fatalf("workers=%d %s: want the recovered panic, got %v", workers, site, err)
			}
			if got.Load() != put.Load() {
				t.Fatalf("workers=%d %s: %d scratches taken, %d released", workers, site, got.Load(), put.Load())
			}
		}
	}
}

func TestResolve(t *testing.T) {
	g := gen.Random(10, 30, []string{"a", "b"}, 1)
	if _, ok := pg.Resolve(g, automata.GuardLabel("zzz")); ok {
		t.Fatal("positive guard over an absent label should not resolve")
	}
	rg, ok := pg.Resolve(g, automata.GuardLabel("a"))
	if !ok || rg.Negated || len(rg.LabelIDs) != 1 {
		t.Fatalf("positive guard: %+v ok=%v", rg, ok)
	}
	nrg, ok := pg.Resolve(g, automata.Guard{Negated: true, Labels: []string{"a"}})
	if !ok || !nrg.Negated {
		t.Fatalf("negated guard: %+v ok=%v", nrg, ok)
	}
	// The two guards partition the edge set.
	count := func(r pg.ResolvedGuard) int {
		n := 0
		r.Edges(g, func(int) { n++ })
		return n
	}
	if count(rg)+count(nrg) != g.NumEdges() {
		t.Fatalf("a-edges %d + non-a-edges %d != %d", count(rg), count(nrg), g.NumEdges())
	}
}

func TestCountersObserveFrontier(t *testing.T) {
	var c pg.Counters
	c.ObserveFrontier(10)
	c.ObserveFrontier(3)
	c.ObserveFrontier(25)
	if got := c.Snapshot().FrontierPeak; got != 25 {
		t.Fatalf("frontier peak = %d, want 25", got)
	}
	var nilC *pg.Counters
	nilC.AddStates(1) // nil counters must be inert
	nilC.ObserveFrontier(1)
	nilC.CountPlan(pg.Plan{})
	if got := nilC.Snapshot(); got != (pg.CountersSnapshot{}) {
		t.Fatalf("nil counters snapshot = %+v", got)
	}
}
