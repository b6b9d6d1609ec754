package pg

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism option to a worker count: values ≤ 0 mean
// one worker per available CPU.
func Workers(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered during evaluation — a bug, reported as
// the query's error instead of killing the process. The fan-out recovers
// in its workers because a worker goroutine has no caller that could; the
// serving layer builds the same error for the handler goroutine. Error
// omits the stack (the text reaches clients); Stack is for the log.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("pg: panic during evaluation: %v", e.Value) }

// recoverTo hands a panic on the deferring goroutine to report as a
// *PanicError.
func recoverTo(report func(error)) {
	if r := recover(); r != nil {
		report(&PanicError{Value: r, Stack: debug.Stack()})
	}
}

// emitWindowPerWorker bounds the fan-out's in-flight results: at most this
// many indexes per worker may be claimed but not yet emitted. Workers that
// get this far ahead of the emit cursor park on a condition variable, so a
// slow emit (a streaming consumer applying backpressure) throttles
// evaluation instead of letting finished parts pile up. Workers claim one
// index at a time: every index the runtime fans out is heavy — a batch of
// up to 64 sources (the all-sources driver) or a CRPQ atom's per-source
// path enumeration — so the claim/deposit synchronization is noise, and
// the window stays a count of indexes, not of runs of them.
const emitWindowPerWorker = 4

// ForEachEmit is the runtime's per-index fan-out with deterministic
// delivery: fn(i, scratch) runs for every i in [0, n) on a worker pool and
// each finished part is handed to emit in strict index order as soon as it
// and all earlier ones are done. The emitted sequence is therefore
// byte-identical to the sequential loop's regardless of worker count or
// scheduling, while memory is bounded by the in-flight window (workers ×
// emitWindowPerWorker parts), not by the total result. A caller that wants
// the whole result passes an emit that appends.
//
// Each worker takes its own scratch from newScratch (may be nil when S is
// unused) and releases it through putScratch (may be nil) when it exits,
// on error paths too. emit is never called concurrently with itself; it sees
// every part, empty ones too. The first error — from fn, from emit, or a
// panic in either (*PanicError) — stops all workers at their next index
// and is returned, voiding parts not yet emitted; the pool is always
// joined before returning, so no goroutine outlives the call. An emitted
// part must not be retained beyond the emit call if P aliases scratch
// state (it does not for the value types the runtime fans out). With
// workers ≤ 1 the call degenerates to the plain sequential loop: fn, emit,
// repeat.
func ForEachEmit[P, S any](n, workers int, newScratch func() S, putScratch func(S), fn func(i int, sc S) (P, error), emit func(part P) error) (err error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defer recoverTo(func(e error) { err = e })
		var sc S
		if newScratch != nil {
			sc = newScratch()
			if putScratch != nil {
				defer putScratch(sc)
			}
		}
		for i := 0; i < n; i++ {
			part, err := fn(i, sc)
			if err != nil {
				return err
			}
			if err := emit(part); err != nil {
				return err
			}
		}
		return nil
	}

	window := workers * emitWindowPerWorker
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int           // next index to claim
		emitted  int           // next index to emit
		done     = map[int]P{} // finished parts awaiting their turn
		emitting bool          // one worker at a time drains the ready prefix
		failed   atomic.Bool   // set under mu; read without it between indexes
		firstErr error
	)
	fail := func(err error) {
		if !failed.Swap(true) {
			firstErr = err
		}
		cond.Broadcast()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// fn and emit run with mu released, so a panic in either finds
			// it free to take here.
			defer recoverTo(func(e error) {
				mu.Lock()
				fail(e)
				mu.Unlock()
			})
			var sc S
			if newScratch != nil {
				sc = newScratch()
				if putScratch != nil {
					defer putScratch(sc)
				}
			}
			for {
				mu.Lock()
				// The window wait is the backpressure edge: claimed-but-
				// unemitted indexes are capped, so a blocked emit parks the
				// whole pool within one index each.
				for !failed.Load() && next-emitted >= window {
					cond.Wait()
				}
				if failed.Load() || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				part, err := fn(i, sc)

				mu.Lock()
				if failed.Load() {
					mu.Unlock()
					return
				}
				if err != nil {
					fail(err)
					mu.Unlock()
					return
				}
				done[i] = part
				// Whoever completes the emit cursor's index becomes the
				// emitter and drains every contiguously ready part, releasing
				// the lock around the emit calls so other workers keep
				// computing (until the window stops them).
				if !emitting {
					for !failed.Load() {
						part, ready := done[emitted]
						if !ready {
							break
						}
						emitting = true
						delete(done, emitted)
						mu.Unlock()
						emitErr := emit(part)
						mu.Lock()
						emitting = false
						if emitErr != nil {
							fail(emitErr)
							break
						}
						emitted++
						cond.Broadcast()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}
