package pg

import (
	"math"
	mathbits "math/bits"
	"slices"
	"sync"
)

// This file is the all-sources side of the kernel: the one driver every
// all-pairs evaluator runs (SweepAll for eval's planned pairs, twoway and
// the atoms of a crpq.Plan, SweepFrom for an atom anchored at a constant and
// for the reference crpq evaluator's existence atoms), the Runs it hands out
// (runs.go), and the batched loop under it. An all-pairs query is one
// reachability sweep per source, and the sources share almost all of their
// edge scans; the batched loop runs up to 64 of them at once, one bit of a
// machine word each (multi-source BFS à la Then et al.): per product state a word of the sources that have reached it, a
// frontier of (state, word) entries, and one scan of a state's adjacency
// advancing every source whose bit is in its frontier word. A single source
// keeps running Kernel.Sweep — the loop anchored reads always ran. The loop
// shares a scan only between sources that reach a state in the same level;
// a SweepAll that can afford to leaves it after its first batch for the
// product's condensation, where there are no levels (condense.go, DESIGN
// §20).

// batchWidth is the number of sources one batched sweep carries: the bits
// of a machine word.
const batchWidth = 64

// frontEntry is one product state of a batch's frontier with the sources
// that reached it in the previous level.
type frontEntry struct {
	id   int32
	bits uint64
}

// batch holds the buffers of one batched sweep. The slabs are flat words —
// nothing for the garbage collector to trace — and every nonzero entry of
// one is named by a list (touched, nextIDs, hits), so clearing costs
// O(touched), not O(|N|·|Q|): an all-pairs query over a large graph is
// hundreds of batches that may each die after a handful of states.
//
// The price is memory: 16 bytes per product state plus 8 per node, per
// worker, where Sweep's bitsets take 2 bits per state — 72 MB for a
// 1M-node × 4-state product. maxBatchStates caps it. Batches recycle
// through a package-wide pool rather than a kernel's: a kernel lives only
// as long as its graph revision, so a per-kernel pool would buy every slab
// again after every commit. The pool is a sync.Pool, so the collector
// frees slabs that sit idle across two cycles.
type batch struct {
	seen []uint64 // per product state: sources that have reached it
	next []uint64 // per product state: sources that first reached it in the level being built
	acc  []uint64 // per graph node: sources that have reached one of its accepting states
	// pend is used by the condensed loop only (condense.go), where seen is
	// indexed by component: a bit per component reached and not yet popped.
	pend []uint64

	touched []int32 // product states with seen != 0
	nextIDs []int32 // product states with next != 0
	hits    []int32 // graph nodes with acc != 0
	front   []frontEntry

	found int64 // (source, state) discoveries so far
}

// maxBatchStates bounds the product a batch accepts, so that its slabs stay
// under 4 GiB per worker. Larger products are refused as a states-budget
// error, like maxSweepStates.
const maxBatchStates = 1 << 28

var batchPool sync.Pool // of *batch

func getBatch() *batch {
	if b, ok := batchPool.Get().(*batch); ok {
		return b
	}
	return &batch{}
}

func putBatch(b *batch) { batchPool.Put(b) }

// reset clears whatever the previous sweep left — it may have ended in an
// error or a panic, so clearing happens on entry, not on exit — and sizes
// the slabs for a product of the given dimensions.
func (b *batch) reset(states, nodes int) {
	for _, id := range b.touched {
		b.seen[id] = 0
		b.pend[id>>6] = 0
	}
	for _, id := range b.nextIDs {
		b.next[id] = 0
	}
	for _, v := range b.hits {
		b.acc[v] = 0
	}
	b.touched, b.nextIDs, b.hits, b.front, b.found = b.touched[:0], b.nextIDs[:0], b.hits[:0], b.front[:0], 0
	if len(b.seen) < states {
		b.seen, b.next, b.pend = make([]uint64, states), make([]uint64, states), make([]uint64, (states+63)/64)
	}
	if len(b.acc) < nodes {
		b.acc = make([]uint64, nodes)
	}
}

// discover records that the sources in d — none of which had reached it —
// now reach product state id = (v, q): they join its seen word and the next
// level's frontier, count one state each, and, if q accepts, gain v as a
// target. Every list append precedes the slab write it names, so the lists
// cover the slabs whatever interrupts the sweep.
func (b *batch) discover(id, v int, d uint64, accepting bool) {
	if b.seen[id] == 0 {
		b.touched = append(b.touched, int32(id))
	}
	b.seen[id] |= d
	if b.next[id] == 0 {
		b.nextIDs = append(b.nextIDs, int32(id))
	}
	b.next[id] |= d
	b.found += int64(mathbits.OnesCount64(d))
	if accepting {
		if b.acc[v] == 0 {
			b.hits = append(b.hits, int32(v))
		}
		b.acc[v] |= d
	}
}

// promote turns the level just built into the current frontier and returns
// the sources that have a state in it.
func (b *batch) promote() (active uint64) {
	b.front = b.front[:0]
	for _, id := range b.nextIDs {
		bits := b.next[id]
		b.next[id] = 0
		active |= bits
		b.front = append(b.front, frontEntry{id, bits})
	}
	b.nextIDs = b.nextIDs[:0]
	return active
}

// denseHits is the share of the graph's nodes a batch must have hit for runs
// to find them by walking the acc slab instead of sorting the hit list: the
// walk reads a word per node and compares nothing, the sort costs some tens
// of nanoseconds per hit, so below one node in denseHits the list is cheaper.
const denseHits = 16

// dense reports whether the batch hit enough of the graph's nodes for runs
// to walk the slab. It is a property of the input — how many distinct nodes
// the batch's sources reach — so the same call takes the same way every
// time, on any machine.
func (b *batch) dense(nodes int) bool { return len(b.hits) >= nodes/denseHits }

// runs renders the batch's result: for each source in order that reached
// anything, its targets ascending, in one freshly allocated Runs — the only
// allocation of a warm batch. Meeting the hit nodes in ascending order and
// dealing each to the sources in its word yields every source's targets
// already sorted. dense says how they are met: by walking the acc slab from
// node 0 up, or by sorting the hit list — so that a batch that reached a
// handful of nodes does not pay O(|N|). The runs are the same either way.
func (b *batch) runs(srcs []int, nodes int, dense bool) (Runs, error) {
	var off [batchWidth + 1]int
	for _, v := range b.hits {
		for w := b.acc[v]; w != 0; w &= w - 1 {
			off[mathbits.TrailingZeros64(w)+1]++
		}
	}
	k := 0
	for i := range srcs {
		if off[i+1] > 0 {
			k++
		}
		off[i+1] += off[i]
	}
	total := off[len(srcs)]
	if total == 0 {
		return Runs{}, nil
	}
	if total > math.MaxInt32 { // more pairs than a run's int32 offsets address
		return Runs{}, &BudgetError{Resource: "rows", Limit: math.MaxInt32}
	}
	out := NewRuns(k, total)
	k = 0
	for i, u := range srcs {
		if off[i+1] > off[i] {
			out.Src[k], out.End[k] = int32(u), int32(off[i+1])
			k++
		}
	}
	tgt := out.Tgt
	if dense {
		for v, w := range b.acc[:nodes] {
			for ; w != 0; w &= w - 1 {
				i := mathbits.TrailingZeros64(w)
				tgt[off[i]] = int32(v)
				off[i]++
			}
		}
		return out, nil
	}
	slices.Sort(b.hits)
	for _, v := range b.hits {
		for w := b.acc[v]; w != 0; w &= w - 1 {
			i := mathbits.TrailingZeros64(w)
			tgt[off[i]] = v
			off[i]++
		}
	}
	return out, nil
}

// sweepBatch runs the sweep from every node of srcs (at most batchWidth,
// distinct) at once and returns, for each in order, its run of ascending
// targets — what len(srcs) calls of Sweep would return. The loop is
// level-synchronous and top-down only, sequential, and allocates nothing but
// its result when b is warm.
//
// One state "visit" is one (source, state) discovery: the meter ticks the
// popcount of every word of newly arrived sources, so a query's states
// reading, its states budget and the kernel's states counter are what
// per-source sweeps would have made them. Edges are counted as adjacency
// entries examined, once per scan however many sources it advanced — the
// number batching exists to shrink. Cancellation and the states budget are
// polled every CheckInterval discoveries, as in Sweep.
func (k *Kernel) sweepBatch(srcs []int, b *batch, mt *Meter) (Runs, error) {
	total := k.NumProductStates()
	if err := checkSweepSize(total, maxBatchStates); err != nil {
		return Runs{}, err
	}
	g, nq := k.g, k.nq
	b.reset(total, g.NumNodes())
	tb := k.tables.Load()
	seen := b.seen
	for i, u := range srcs {
		for _, q := range k.starts {
			if d := uint64(1) << uint(i) &^ seen[u*nq+q]; d != 0 {
				b.discover(u*nq+q, u, d, k.accept[q])
			}
		}
	}

	ss := mt.SweepStatsSink()
	var edges, edgesReported, rented int64
	var ticked, reported, levelStart int64
	var stopErr error
	peak := 0
sweep:
	for level := 0; ; level++ {
		active := b.promote()
		if len(b.front) == 0 {
			break
		}
		peak = max(peak, len(b.front))
		frontier := b.found - levelStart // what the previous level discovered
		levelStart = b.found
		levelEdges := edges
		for _, f := range b.front {
			if b.found-ticked >= CheckInterval {
				if stopErr = mt.Tick(b.found - ticked); stopErr != nil {
					break sweep
				}
				ticked = b.found
			}
			v := int(f.id) / nq
			ft := tb.ft[int(f.id)-v*nq]
			for ti := range ft {
				t := &ft[ti]
				accepting := k.accept[t.state]
				if t.ok != nil {
					adj := g.Out(v)
					if t.in {
						adj = g.In(v)
					}
					edges += int64(len(adj))
					for _, ei := range adj {
						if !t.ok[g.EdgeLabelID(ei)] {
							continue
						}
						w := g.EdgeTgt(ei)
						if t.in {
							w = g.EdgeSrc(ei)
						}
						if d := f.bits &^ seen[w*nq+t.state]; d != 0 {
							b.discover(w*nq+t.state, w, d, accepting)
						}
					}
					continue
				}
				for i, lid := range t.labels {
					if la := t.adjs[i]; la != nil {
						tos := la.Neighbors(v)
						edges += int64(len(tos))
						for _, w := range tos {
							if d := f.bits &^ seen[int(w)*nq+t.state]; d != 0 {
								b.discover(int(w)*nq+t.state, int(w), d, accepting)
							}
						}
						continue
					}
					adj := g.OutWithLabel(v, lid)
					if t.in {
						adj = g.InWithLabel(v, lid)
					}
					edges += int64(len(adj))
					rented += int64(len(adj)) + 1
					for _, ei := range adj {
						w := g.EdgeTgt(ei)
						if t.in {
							w = g.EdgeSrc(ei)
						}
						if d := f.bits &^ seen[w*nq+t.state]; d != 0 {
							b.discover(w*nq+t.state, w, d, accepting)
						}
					}
				}
			}
		}
		ss.RecordLevel(level, int64(mathbits.OnesCount64(active)), frontier, b.found-levelStart,
			edges-levelEdges, int64(len(srcs))*int64(total)-b.found, false)
		if b.found-reported >= CheckInterval {
			reported = b.found
			mt.SweepProgress(int64(len(b.nextIDs)), edges-edgesReported)
			edgesReported = edges
		}
	}
	if stopErr == nil {
		stopErr = mt.Tick(b.found - ticked)
	}
	mt.SweepProgress(0, edges-edgesReported)
	k.c.AddStates(b.found)
	k.c.AddEdges(edges)
	k.c.ObserveFrontier(int64(peak))
	ss.RecordSweep(int64(len(srcs)), b.found, edges, int64(peak))
	k.payRent(rented)
	if stopErr != nil {
		return Runs{}, stopErr
	}
	return b.runs(srcs, g.NumNodes(), b.dense(g.NumNodes()))
}

// firstBatch is the number of sources in a sweep's first batch. It is
// short so that the first pairs reach emit — a streamed reply's first
// byte — after a few sources' work, not 64; every later batch is full.
const firstBatch = 8

// SweepAll runs the sweep from every node of the graph; see SweepFrom. It is
// the one call that may finish on the product's condensation (condense.go):
// when the automaton has a cycle and at least minCondensedBatches batches
// follow the first, batch 0 runs here on the level loop and is emitted
// before the fan-out starts, and the rest of the call is condensed if the
// build fits under what batch 0 was charged — decided once, from the
// automaton's shape and batch 0's own count, never from timing or the
// worker count, so the pairs, their order and every count are the same
// either way.
func (k *Kernel) SweepAll(workers int, mt *Meter, pl Plan, chargeRows bool, emit func(Runs) error) error {
	return k.sweepMany(k.g.NumNodes(), func(i int) int { return i }, true, workers, mt, pl, chargeRows, emit)
}

// SweepFrom runs the sweep from every node of sources — none, if the list
// is empty — tombstoned nodes skipped, and hands emit the (source, target)
// pairs as Runs: sources in the order given, each source's targets
// ascending, a call carrying one or more whole sources and never none.
// Distinct ascending sources therefore arrive in lexicographic order with
// no final sort, and the sequence is byte-identical at any worker count.
//
// Sources run up to 64 to a batch through the batched loop (the first
// batch is firstBatch sources), batches fanned out over ForEachEmit's pool
// of workers, one batch per claim, so memory in flight is bounded in
// sources (workers × emitWindowPerWorker batches) and a blocked emit
// throttles the pool. A batch is sequential and unsharded: pl.Shards is
// not consulted. A single source has nothing to share and runs
// Kernel.Sweep under pl.
//
// Every sweep ticks mt, so a canceled context or an exhausted states
// budget stops all workers within one check interval; the pool is joined
// before returning. With chargeRows set every pair is a result row of the
// query and is charged on mt — batches at delivery, in order, a whole batch
// in one add unless it would trip the budget, that one up to the tripping
// row — so a MaxRows budget trips on row MaxRows+1 with every earlier source
// already with emit; Sweep charges as it discovers. emit is never called
// concurrently with itself and owns the Runs it is handed; its error stops
// evaluation and is returned verbatim.
func (k *Kernel) SweepFrom(sources []int, workers int, mt *Meter, pl Plan, chargeRows bool, emit func(Runs) error) error {
	return k.sweepMany(len(sources), func(i int) int { return sources[i] }, false, workers, mt, pl, chargeRows, emit)
}

// sweepMany is the all-sources driver under SweepAll and SweepFrom: the
// sources are source(0) … source(n-1), and all says they are every node of
// the graph.
func (k *Kernel) sweepMany(n int, source func(int) int, all bool, workers int, mt *Meter, pl Plan, chargeRows bool, emit func(Runs) error) error {
	if chargeRows && mt != nil && n != 1 { // a single source's Sweep charges its own rows
		deliver := emit
		emit = func(part Runs) error {
			// A batch that fits under the budget is charged in one add; the
			// batch that would trip it is charged up to the tripping row, so
			// the meter stops at MaxRows+1 inside the tripping source.
			left := mt.maxRows - mt.rows.Load()
			if n := int64(part.Len()); mt.maxRows <= 0 || n <= left {
				if err := mt.AddRows(n); err != nil {
					return err
				}
				return deliver(part)
			}
			left = max(left, 0)
			err := mt.AddRows(left + 1)
			// The budget trips inside the source of row left: the sources
			// before it are whole and within budget.
			if whole := part.Head(part.Find(int(left))); whole.Len() > 0 {
				if err := deliver(whole); err != nil {
					return err
				}
			}
			return err
		}
	}
	nonEmpty := emit
	emit = func(part Runs) error {
		if part.Len() == 0 {
			return nil
		}
		return nonEmpty(part)
	}
	if n == 1 {
		return ForEachEmit(1, 1, k.GetScratch, k.PutScratch, func(_ int, sc *Scratch) (Runs, error) {
			u := source(0)
			if !k.g.NodeAlive(u) {
				return Runs{}, nil
			}
			vs, err := k.Sweep(u, sc, mt, pl, chargeRows)
			if err != nil || len(vs) == 0 {
				return Runs{}, err
			}
			// vs aliases the scratch; the run is emit's to keep.
			part := NewRuns(1, len(vs))
			part.Src[0], part.End[0] = int32(u), int32(len(vs))
			for j, v := range vs {
				part.Tgt[j] = int32(v)
			}
			return part, nil
		}, emit)
	}
	batches := 0
	if n > 0 {
		batches = 1 + (max(n-firstBatch, 0)+batchWidth-1)/batchWidth
	}
	done := 0 // batches run before the fan-out
	var cd *condensation
	if all && batches-1 >= minCondensedBatches && k.cyclic() {
		var err error
		if cd, err = k.probe(n, source, mt, emit); err != nil {
			return err
		}
		if done = 1; cd != nil {
			defer condPool.Put(cd)
		}
	}
	return ForEachEmit(batches-done, workers, getBatch, putBatch, func(bi int, b *batch) (Runs, error) {
		var buf [batchWidth]int
		srcs := k.liveSources(bi+done, n, source, &buf)
		if len(srcs) == 0 {
			return Runs{}, nil
		}
		if cd != nil {
			return k.sweepCondensed(cd, srcs, b, mt)
		}
		return k.sweepBatch(srcs, b, mt)
	}, emit)
}

// liveSources fills buf with the live sources of batch bi — batch 0 is
// sources [0, firstBatch), batch b ≥ 1 the 64 that end at firstBatch + 64b —
// and returns them.
func (k *Kernel) liveSources(bi, n int, source func(int) int, buf *[batchWidth]int) []int {
	m := 0
	for i := max(0, firstBatch+(bi-1)*batchWidth); i < min(n, firstBatch+bi*batchWidth); i++ {
		if u := source(i); k.g.NodeAlive(u) {
			buf[m] = u
			m++
		}
	}
	return buf[:m]
}

// probe rents before the call may buy: it runs batch 0 on the level loop,
// hands its pairs to emit — a streamed reply's first byte does not wait for
// the build — and then tries to condense under what the batch was charged.
// A nil condensation means the call stays on the level loop. It runs on the
// caller's goroutine, so it contains panics the way the fan-out does.
func (k *Kernel) probe(n int, source func(int) int, mt *Meter, emit func(Runs) error) (cd *condensation, err error) {
	defer recoverTo(func(e error) { cd, err = nil, e })
	var buf [batchWidth]int
	var charged int64
	if srcs := k.liveSources(0, n, source, &buf); len(srcs) > 0 {
		b := getBatch()
		defer putBatch(b)
		part, err := k.sweepBatch(srcs, b, mt)
		if err != nil {
			return nil, err
		}
		if err := emit(part); err != nil {
			return nil, err
		}
		charged = b.found
	}
	return k.condense(charged, mt)
}
