package pg

import (
	"math"
	mathbits "math/bits"
	"sync"

	"graphquery/internal/graph"
)

// This file is the all-sources side of the kernel: the one driver every
// all-pairs evaluator runs (SweepAll for eval's planned pairs, twoway and
// the atoms of a crpq.Plan, SweepFrom for an atom anchored at a constant and
// for the reference crpq evaluator's existence atoms), the Runs it hands out
// (runs.go), and the batched loop under it. An all-pairs answer is one
// reachability set per source, and the driver spends on a source what its
// set takes to find (DESIGN §22). A source that no transition out of a start
// state has an edge at has an empty one, known from the adjacency offsets
// alone: it is charged what its sweep would have been and never seeded. The
// sources that do move share almost all of their edge scans, so the batched
// loop runs up to 64 of them at once, one bit of a machine word each
// (multi-source BFS à la Then et al.): per product state a word of the
// sources that have reached it, a frontier of (state, word) entries, and one
// scan of a state's adjacency advancing every source whose bit is in its
// frontier word. A single source keeps running Kernel.Sweep — the loop
// anchored reads always ran. The loop shares a scan only between sources
// that reach a state in the same level; a SweepAll that can afford to
// runs on the product's condensation instead, where there are no levels:
// after its first batch on a cold kernel, from the first batch on once the
// kernel keeps one (condense.go, DESIGN §20).

// batchWidth is the number of sources one batched sweep carries: the bits
// of a machine word.
const batchWidth = 64

// frontEntry is one product state of a batch's frontier with the sources
// that reached it in the previous level.
type frontEntry struct {
	id   int32
	bits uint64
}

// batch holds the buffers of one batched sweep. Its words are flat —
// nothing for the garbage collector to trace — and every nonzero one is
// named by a list (touched, nextIDs) or, for acc, by the hit bitmap, so
// clearing costs O(touched), not O(|N|·|Q|): an all-pairs query over a
// large graph is hundreds of batches that may each die after a handful of
// states.
//
// The level loop keeps a state's seen and next words where its footprint is
// what the batch touched, not the product: the states it discovers are
// numbered in discovery order — touched[l] is the product state of local
// number l — their words live at l in lseen and lnext, and tab, an
// open-addressing table, maps a product state to l+1. Most batches of a
// selective query touch a few hundred states and so work in a few kB. A
// batch that comes to hold more than half the product's states, where the
// map is no longer smaller than a word per state, moves its words onto the
// flat seen and next slabs — 16 bytes per product state, allocated the
// first time a batch needs them — and finishes there; flatAt records the
// level it moved at. A batch whose last level-loop sweep ended that way
// starts on the slabs (open). acc stays a word per node.
//
// The price of the flat slabs is memory: 16 bytes per product state plus 8
// per node, per worker, where Sweep's bitsets take 2 bits per state — 72 MB
// for a 1M-node × 4-state product. maxBatchStates caps it. At the switch
// the map, then about as large as the slabs, is still held beside them
// (DESIGN §12 has the peak). Batches recycle
// through a package-wide pool rather than a kernel's: a kernel lives only
// as long as its graph revision, so a per-kernel pool would buy every slab
// again after every commit. The pool is a sync.Pool, so the collector
// frees slabs that sit idle across two cycles.
type batch struct {
	tab   []uint64 // the level loop's map: product state << 32 | local number + 1; 0 is empty
	shift uint     // the table's hash shift: 32 - log2(len(tab))
	lseen []uint64 // per local number: sources that have reached its state
	lnext []uint64 // per local number: sources that first reached it in the level being built

	seen []uint64 // per product state, once flat: sources that have reached it
	next []uint64 // per product state, once flat: sources that first reached it in the level being built
	acc  []uint64 // per graph node: sources that have reached one of its accepting states
	// pend is used by the condensed loop only (condense.go), where seen is
	// indexed by component: a bit per component reached and not yet popped.
	pend []uint64

	// The hit bitmap names the nodes with acc != 0 so that runs can meet them
	// in ascending order without a sort and without reading a word per node:
	// hit has a bit per node, hitSum a bit per word of hit.
	hit    []uint64
	hitSum []uint64

	touched []int32 // states with a nonzero seen word, in discovery order: the level loop's product states, the condensed loop's components
	nextIDs []int32 // states with a nonzero next word: local numbers while compact, product states once flat
	hits    []int32 // drainHits' output: hit nodes ascending, acc still set
	front   []frontEntry

	loop   loopKind // the loop that last used the batch, whose words reset clears
	flatAt int      // the level at which the level loop moved onto seen and next; -1 while compact
	held   int      // the states the last level-loop sweep on the batch touched

	found  int64 // (source, state) discoveries so far
	ticked int64 // of them, on the meter
}

// loopKind names the loop a batch last ran.
type loopKind uint8

const (
	noLoop loopKind = iota
	levelLoop
	condensedLoop
)

// maxBatchStates bounds the product a batch accepts, so that its flat slabs
// stay under 4 GiB per worker. Larger products are refused as a
// states-budget error, like maxSweepStates.
const maxBatchStates = 1 << 28

var batchPool sync.Pool // of *batch

func getBatch() *batch {
	if b, ok := batchPool.Get().(*batch); ok {
		return b
	}
	return &batch{}
}

func putBatch(b *batch) { batchPool.Put(b) }

// reset clears what the loop that last used the batch wrote — it may have
// ended in an error or a panic, so clearing happens on entry, not on exit —
// and records that loop now uses it. It sizes acc for nodes and, for the
// condensed loop, seen and pend for states components; the level loop's
// table is sized by open, its flat slabs by goFlat.
func (b *batch) reset(loop loopKind, states, nodes int) {
	switch b.loop {
	case condensedLoop:
		for _, c := range b.touched {
			b.seen[c] = 0
			b.pend[c>>6] = 0
		}
	case levelLoop:
		b.held = len(b.touched)
		if b.flatAt < 0 { // the map is cut below, and its table cleared by open
			break
		}
		for _, id := range b.touched {
			b.seen[id] = 0
		}
		for _, id := range b.nextIDs {
			b.next[id] = 0
		}
	}
	for _, v := range b.drainHits() {
		b.acc[v] = 0
	}
	b.touched, b.nextIDs, b.hits, b.front, b.found, b.ticked = b.touched[:0], b.nextIDs[:0], b.hits[:0], b.front[:0], 0, 0
	b.lseen, b.lnext, b.loop, b.flatAt = b.lseen[:0], b.lnext[:0], loop, -1
	if loop == condensedLoop {
		b.seen, b.pend = grown(b.seen, states), grown(b.pend, (states+63)/64)
	}
	if len(b.acc) < nodes {
		words := (nodes + 63) / 64
		b.acc, b.hit, b.hitSum = make([]uint64, nodes), make([]uint64, words), make([]uint64, (words+63)/64)
	}
}

// grown returns s if it has n words, else n fresh zero words.
func grown(s []uint64, n int) []uint64 {
	if len(s) < n {
		return make([]uint64, n)
	}
	return s
}

// open sizes the level loop's table for a batch that seeds the given number
// of states and says whether the batch should start on the flat slabs
// instead. The batches of one call are alike, so a batch starts where the
// last level-loop sweep on it ended: on the slabs if that sweep held more
// than half of a product of states states; otherwise on a table with room
// for twice what it held or twice the seeded states, whichever is more — a
// power of two, not rebuilt at every doubling on the way there.
func (b *batch) open(seeded, states int) (flat bool) {
	held := b.held
	if 2*held > states {
		flat, held = true, 0
	}
	b.rehash(1 << mathbits.Len(uint(max(2*max(seeded, held)-1, 1))))
	return flat
}

// rehash clears the table at size slots, a power of two — in the capacity it
// has when that suffices — and enters every state touched so far.
func (b *batch) rehash(size int) {
	if cap(b.tab) >= size {
		b.tab = b.tab[:size]
		clear(b.tab)
	} else {
		b.tab = make([]uint64, size)
	}
	b.shift = uint(33 - mathbits.Len(uint(size)))
	for l, id := range b.touched {
		s := int(uint32(id) * 0x9e3779b9 >> b.shift)
		for b.tab[s] != 0 {
			s = (s + 1) & (size - 1)
		}
		b.tab[s] = uint64(id)<<32 | uint64(l+1)
	}
}

// find looks product state id up in the compact map: its slot, and its
// local number, or -1 and the empty slot where it goes.
func (b *batch) find(id int) (s int, l int32) {
	s = int(uint32(id) * 0x9e3779b9 >> b.shift)
	for e := b.tab[s]; e != 0; e = b.tab[s] {
		if e>>32 == uint64(id) {
			return s, int32(e) - 1
		}
		s = (s + 1) & (len(b.tab) - 1)
	}
	return s, -1
}

// enter numbers product state id = (v, q), which find placed at slot s, and
// discovers it for the sources in d. The table doubles once it is more than
// half full.
func (b *batch) enter(s, id, v int, d uint64, accepting bool) {
	l := int32(len(b.touched))
	b.touched = append(b.touched, int32(id))
	b.lseen = append(b.lseen, d)
	b.lnext = append(b.lnext, d)
	b.nextIDs = append(b.nextIDs, l)
	b.tab[s] = uint64(id)<<32 | uint64(l+1)
	b.found += int64(mathbits.OnesCount64(d))
	if accepting {
		b.accept(v, d)
	}
	if 2*len(b.touched) > len(b.tab) {
		b.rehash(2 * len(b.tab))
	}
}

// gain discovers the state of local number l, node v, for the sources in d,
// none of which had reached it.
func (b *batch) gain(l int32, v int, d uint64, accepting bool) {
	b.lseen[l] |= d
	if b.lnext[l] == 0 {
		b.nextIDs = append(b.nextIDs, l)
	}
	b.lnext[l] |= d
	b.found += int64(mathbits.OnesCount64(d))
	if accepting {
		b.accept(v, d)
	}
}

// goFlat moves the level loop's words from the compact map onto the flat
// slabs of a product of states states, at the given level. flatAt is set
// before the first slab write and every state written is named by touched
// and, once its entry is renamed from local number to product state, by
// nextIDs, so the lists cover the slabs whatever interrupts the move.
func (b *batch) goFlat(states, level int) {
	b.seen, b.next = grown(b.seen, states), grown(b.next, states)
	b.flatAt = level
	for l, id := range b.touched {
		b.seen[id] = b.lseen[l]
	}
	for i, l := range b.nextIDs {
		id := b.touched[l]
		b.nextIDs[i] = id
		b.next[id] = b.lnext[l]
	}
}

// discover records, once the level loop is flat, that the sources in d —
// none of which had reached it — now reach product state id = (v, q): they
// join its seen word and the next level's frontier, count one state each,
// and, if q accepts, gain v as a target. Every list append precedes the
// slab write it names, so the lists cover the slabs whatever interrupts the
// sweep.
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
		b.accept(v, d)
	}
}

// accept gives the sources in d node v as a target. The bitmap is marked
// before the slab is written, summary first, so it covers acc whatever
// interrupts the sweep.
func (b *batch) accept(v int, d uint64) {
	if b.acc[v] == 0 {
		b.hitSum[v>>12] |= 1 << uint(v>>6&63)
		b.hit[v>>6] |= 1 << uint(v&63)
	}
	b.acc[v] |= d
}

// drainHits empties the hit bitmap onto the end of b.hits — the hit nodes in
// ascending order — and returns the list: O(|N|/4096 + hits), a summary word
// per 4 096 nodes and a word per 64 that were hit. acc is left as it is; the
// list now names its nonzero entries.
func (b *batch) drainHits() []int32 {
	for si, sum := range b.hitSum {
		if sum == 0 {
			continue
		}
		b.hitSum[si] = 0
		for ; sum != 0; sum &= sum - 1 {
			wi := si<<6 | mathbits.TrailingZeros64(sum)
			w := b.hit[wi]
			b.hit[wi] = 0
			for ; w != 0; w &= w - 1 {
				b.hits = append(b.hits, int32(wi<<6|mathbits.TrailingZeros64(w)))
			}
		}
	}
	return b.hits
}

// charge counts n (source, state) discoveries that took no scan to make — the
// start states of idle sources, a popped component's states — in steps of
// CheckInterval, so cancellation and the states budget land within one
// interval however many there are.
func (b *batch) charge(n int64, mt *Meter) error {
	for n > 0 {
		step := min(n, max(CheckInterval-(b.found-b.ticked), 0))
		b.found += step
		n -= step
		if b.found-b.ticked >= CheckInterval {
			if err := mt.Tick(b.found - b.ticked); err != nil {
				return err
			}
			b.ticked = b.found
		}
	}
	return nil
}

// promote turns the level just built into the current frontier and returns
// the sources that have a state in it.
func (b *batch) promote() (active uint64) {
	b.front = b.front[:0]
	if b.flatAt >= 0 {
		for _, id := range b.nextIDs {
			bits := b.next[id]
			b.next[id] = 0
			active |= bits
			b.front = append(b.front, frontEntry{id, bits})
		}
	} else {
		for _, l := range b.nextIDs {
			bits := b.lnext[l]
			b.lnext[l] = 0
			active |= bits
			b.front = append(b.front, frontEntry{b.touched[l], bits})
		}
	}
	b.nextIDs = b.nextIDs[:0]
	return active
}

// byteLanes[x] spreads the eight bits of x over the eight bytes of a word:
// byte j is bit j of x. Adding byteLanes[byte t of w] to a word counts, in
// its byte j, the words w with bit 8t+j set — eight counters a lookup.
var byteLanes = func() (t [256]uint64) {
	for x := range t {
		for j := 0; j < 8; j++ {
			t[x] |= uint64(x>>j&1) << (8 * j)
		}
	}
	return t
}()

// laneFlush is how many words the byte lanes count before they are flushed:
// a one-byte counter holds 255.
const laneFlush = 255

// countTargets adds to off[i+1] the number of hit nodes whose acc word has
// bit i set — each source's target count — in byte lanes: eight table
// lookups a hit node whatever its popcount, into eight words of eight
// one-byte counters, flushed every laneFlush nodes.
func (b *batch) countTargets(hits []int32, off *[batchWidth + 1]int) {
	for len(hits) > 0 {
		chunk := hits[:min(len(hits), laneFlush)]
		hits = hits[len(chunk):]
		var l0, l1, l2, l3, l4, l5, l6, l7 uint64
		for _, v := range chunk {
			w := b.acc[v]
			l0 += byteLanes[uint8(w)]
			l1 += byteLanes[uint8(w>>8)]
			l2 += byteLanes[uint8(w>>16)]
			l3 += byteLanes[uint8(w>>24)]
			l4 += byteLanes[uint8(w>>32)]
			l5 += byteLanes[uint8(w>>40)]
			l6 += byteLanes[uint8(w>>48)]
			l7 += byteLanes[uint8(w>>56)]
		}
		for t, l := range [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7} {
			for j := 0; j < 8; j++ {
				off[8*t+j+1] += int(uint8(l >> (8 * j)))
			}
		}
	}
}

// runs renders the batch's result: for each source in order that reached
// anything, its targets ascending, in one freshly allocated Runs — the only
// allocation of a warm batch. The hit nodes are met in ascending order —
// drained from the bitmap, so nothing is compared and nothing is read per
// node of the graph — counted per source (countTargets), and each is dealt
// to the sources in its word, which yields every source's targets already
// sorted. acc is cleared as it is dealt.
func (b *batch) runs(srcs []int) (Runs, error) {
	hits := b.drainHits()
	var off [batchWidth + 1]int
	b.countTargets(hits, &off)
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
	for _, v := range hits {
		for w := b.acc[v]; w != 0; w &= w - 1 {
			i := mathbits.TrailingZeros64(w)
			tgt[off[i]] = v
			off[i]++
		}
		b.acc[v] = 0
	}
	b.hits = hits[:0]
	return out, nil
}

// sweepBatch runs the sweep from every node of srcs (at most batchWidth,
// distinct, none of them idle) at once and returns, for each in order, its
// run of ascending targets — what len(srcs) calls of Sweep would return —
// having first charged the idle sources of the batch's window what theirs
// would have cost: the start states, no edges, the rent of the lookups that
// found their rows empty. The loop is level-synchronous and top-down only,
// sequential, and allocates nothing but its result when b is warm. It runs
// on the compact map until that holds more than half the product's states —
// checked between frontier entries — and on the flat slabs from there on
// (from the start, if the last level-loop sweep on b ended there):
// scanCompact and scanFlat are the same scan over the two.
//
// One state "visit" is one (source, state) discovery: the meter ticks the
// popcount of every word of newly arrived sources, so a query's states
// reading, its states budget and the kernel's states counter are what
// per-source sweeps would have made them. Edges are counted as adjacency
// entries examined, once per scan however many sources it advanced — the
// number batching exists to shrink. Cancellation and the states budget are
// polled every CheckInterval discoveries or 4 096 adjacency entries, as in
// Sweep.
func (k *Kernel) sweepBatch(tb *sweepTables, srcs []int, idle int64, b *batch, mt *Meter) (Runs, error) {
	total := k.NumProductStates()
	if err := checkSweepSize(total, maxBatchStates); err != nil {
		return Runs{}, err
	}
	nq := k.nq
	b.reset(levelLoop, total, k.g.NumNodes())
	ss := mt.SweepStatsSink()
	stopErr := b.charge(idle*int64(len(k.idleStarts)), mt)
	idleStates := b.found
	peak := 0
	if idle > 0 {
		// Level 0 of the sweeps that were not run: the start states enter,
		// nothing is examined, nothing is discovered.
		ss.RecordLevel(0, idle, idleStates, 0, 0, idle*int64(total)-idleStates, false)
		peak = len(k.idleStarts)
	}
	flat := b.open(len(srcs)*len(k.starts), total)
	for i, u := range srcs {
		for _, q := range k.starts {
			bit := uint64(1) << uint(i)
			if s, l := b.find(u*nq + q); l < 0 {
				b.enter(s, u*nq+q, u, bit, k.accept[q])
			} else if d := bit &^ b.lseen[l]; d != 0 {
				b.gain(l, u, d, k.accept[q])
			}
		}
	}
	if flat {
		b.goFlat(total, 0)
	}

	var sc levelScan
	reported, levelStart := idleStates, idleStates
	sc.rented = idle * tb.idleRent
	for level := 0; stopErr == nil; level++ {
		active := b.promote()
		if len(b.front) == 0 {
			break
		}
		peak = max(peak, len(b.front))
		frontier := b.found - levelStart // what the previous level discovered
		levelStart = b.found
		levelEdges := sc.edges
		for i := 0; i < len(b.front) && stopErr == nil; {
			if b.flatAt < 0 {
				i, stopErr = k.scanCompact(tb, b, i, level, total, mt, &sc)
			} else {
				i, stopErr = k.scanFlat(tb, b, i, mt, &sc)
			}
		}
		if stopErr != nil {
			break
		}
		ss.RecordLevel(level, int64(mathbits.OnesCount64(active)), frontier, b.found-levelStart,
			sc.edges-levelEdges, int64(len(srcs))*int64(total)-(b.found-idleStates), false)
		if b.found-reported >= CheckInterval {
			reported = b.found
			mt.SweepProgress(int64(len(b.nextIDs)), sc.edges-sc.edgesReported)
			sc.edgesReported = sc.edges
		}
	}
	if stopErr == nil {
		stopErr = mt.Tick(b.found - b.ticked)
	}
	mt.SweepProgress(0, sc.edges-sc.edgesReported)
	k.c.AddStates(b.found)
	k.c.AddEdges(sc.edges)
	k.c.ObserveFrontier(int64(peak))
	ss.RecordSweep(int64(len(srcs))+idle, idle, b.found, sc.edges, int64(peak))
	k.payRent(sc.rented, stopErr)
	if stopErr != nil {
		return Runs{}, stopErr
	}
	return b.runs(srcs)
}

// levelScan is what the level loop's scans count: adjacency entries
// examined, of them reported to the meter and of them examined by the last
// poll, and rows looked up through the label index.
type levelScan struct {
	edges, edgesReported, polled, rented int64
}

// poll ticks the meter once CheckInterval discoveries have piled up since
// the last tick, and else checks it once more than scanCheckMask
// adjacency entries have been examined since the last poll: a level that
// rediscovers nothing ticks nothing. The scans call it between frontier
// entries.
func (b *batch) poll(mt *Meter, sc *levelScan) error {
	if b.found-b.ticked >= CheckInterval {
		sc.polled = sc.edges
		if err := mt.Tick(b.found - b.ticked); err != nil {
			return err
		}
		b.ticked = b.found
	} else if sc.edges-sc.polled > scanCheckMask {
		sc.polled = sc.edges
		return mt.Check()
	}
	return nil
}

// scanCompact expands the frontier from entry i on the compact map and
// returns where it stopped: at the end of the frontier, at an error from the
// meter, or at the entry before which the map held more than half of the
// product's total states — having moved the batch onto the flat slabs.
func (k *Kernel) scanCompact(tb *sweepTables, b *batch, i, level, total int, mt *Meter, sc *levelScan) (int, error) {
	g, nq := k.g, k.nq
	for ; i < len(b.front); i++ {
		if 2*len(b.touched) > total {
			b.goFlat(total, level)
			return i, nil
		}
		if err := b.poll(mt, sc); err != nil {
			return i, err
		}
		f := b.front[i]
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
				sc.edges += int64(len(adj))
				for _, ei := range adj {
					if !t.ok[g.EdgeLabelID(ei)] {
						continue
					}
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if s, l := b.find(w*nq + t.state); l < 0 {
						b.enter(s, w*nq+t.state, w, f.bits, accepting)
					} else if d := f.bits &^ b.lseen[l]; d != 0 {
						b.gain(l, w, d, accepting)
					}
				}
				continue
			}
			for li, lid := range t.labels {
				if la := t.adjs[li]; la != nil {
					tos := la.Neighbors(v)
					sc.edges += int64(len(tos))
					for _, w := range tos {
						if s, l := b.find(int(w)*nq + t.state); l < 0 {
							b.enter(s, int(w)*nq+t.state, int(w), f.bits, accepting)
						} else if d := f.bits &^ b.lseen[l]; d != 0 {
							b.gain(l, int(w), d, accepting)
						}
					}
					continue
				}
				adj := g.OutWithLabel(v, lid)
				if t.in {
					adj = g.InWithLabel(v, lid)
				}
				sc.edges += int64(len(adj))
				sc.rented += int64(len(adj)) + 1
				for _, ei := range adj {
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if s, l := b.find(w*nq + t.state); l < 0 {
						b.enter(s, w*nq+t.state, w, f.bits, accepting)
					} else if d := f.bits &^ b.lseen[l]; d != 0 {
						b.gain(l, w, d, accepting)
					}
				}
			}
		}
	}
	return i, nil
}

// scanFlat is scanCompact on the flat slabs, from entry i to the end of the
// frontier or an error from the meter.
func (k *Kernel) scanFlat(tb *sweepTables, b *batch, i int, mt *Meter, sc *levelScan) (int, error) {
	g, nq, seen := k.g, k.nq, b.seen
	for ; i < len(b.front); i++ {
		if err := b.poll(mt, sc); err != nil {
			return i, err
		}
		f := b.front[i]
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
				sc.edges += int64(len(adj))
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
			for li, lid := range t.labels {
				if la := t.adjs[li]; la != nil {
					tos := la.Neighbors(v)
					sc.edges += int64(len(tos))
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
				sc.edges += int64(len(adj))
				sc.rented += int64(len(adj)) + 1
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
	return i, nil
}

// idleProbe is one lookup of the idle test: a transition out of a start
// state, for one of its labels.
type idleProbe struct {
	adj   *graph.NeighborTable // the label's table in the scan direction; nil while it is rented
	label int                  // the label's ID; -1 for a guard transition, which examines every edge in its direction
	in    bool
}

// idleProbes lists what the idle test reads under the forward table ft, and
// what an idle source owes for it: one row looked up through the label index
// per slot still rented, the rent the sweep's own lookup pays for a row it
// finds empty.
func (k *Kernel) idleProbes(ft [][]kTrans) (probes []idleProbe, rent int64) {
	for _, q := range k.idleStarts {
		for ti := range ft[q] {
			t := &ft[q][ti]
			if t.ok != nil {
				probes = append(probes, idleProbe{label: -1, in: t.in})
				continue
			}
			for i, lid := range t.labels {
				probes = append(probes, idleProbe{adj: t.adjs[i], label: lid, in: t.in})
				if t.adjs[i] == nil {
					rent++
				}
			}
		}
	}
	return probes, rent
}

// mark sets bit i of moving for every source i the probe finds an edge at. A
// probe with a table reads nothing but its offsets, in order when the
// sources are; one without reads the rows the sweep's own lookup would.
func (p *idleProbe) mark(sl *sourceList, moving []uint64) {
	g := sl.k.g
	for i := 0; i < sl.n; i++ {
		u := sl.at(i)
		var d int
		if p.adj != nil {
			d = p.adj.Degree(u)
		} else {
			d = len(p.row(g, u))
		}
		// No branch on d: which sources move is as good as random.
		var bit uint64
		if d != 0 {
			bit = 1
		}
		moving[i>>6] |= bit << uint(i&63)
	}
}

// row is what the probe reads at v while its label has no table.
func (p *idleProbe) row(g *graph.Graph, v int) []int {
	switch {
	case p.label >= 0 && p.in:
		return g.InWithLabel(v, p.label)
	case p.label >= 0:
		return g.OutWithLabel(v, p.label)
	case p.in:
		return g.In(v)
	}
	return g.Out(v)
}

// firstBatch is the number of sources in a sweep's first window. It is
// short so that the first pairs reach emit — a streamed reply's first
// byte — after a few sources' work, not 64.
const firstBatch = 8

// sourceList is the sources of one all-sources call, cut into the windows
// its batches take. When no source can be idle — a start state accepts — the
// windows are fixed: the first firstBatch sources, then batchWidth at a time.
// Otherwise cut finds the sources that move — those some transition out of a
// start state has an edge at; a sweep from any other examines nothing and
// finds nothing, and a tombstoned node has no edges, so one that moves is
// live — and packs them: the first window is the same, and every later one
// runs on until it holds batchWidth sources that move, taking the idle ones
// between and after them along, so a batch carries a full word of sweeps
// however few of the graph's nodes start one.
type sourceList struct {
	k       *Kernel
	n       int
	sources []int    // source i is sources[i]; nil: node i
	moving  []uint64 // bit i says source i moves; nil: no source can be idle
	ends    []int32  // window b ends before source ends[b]
}

func (sl *sourceList) at(i int) int {
	if sl.sources == nil {
		return i
	}
	return sl.sources[i]
}

// cut marks the sources that move, one pass over the sources per probe, and
// cuts the windows: a bit a source and an int32 a window.
func (sl *sourceList) cut() {
	k, n := sl.k, sl.n
	if n == 0 {
		return
	}
	if len(k.idleStarts) == 0 {
		sl.ends = make([]int32, 0, 2+max(n-firstBatch, 0)/batchWidth)
		sl.ends = append(sl.ends, int32(min(firstBatch, n)))
		for end := firstBatch; end < n; {
			end = min(end+batchWidth, n)
			sl.ends = append(sl.ends, int32(end))
		}
		return
	}
	sl.moving = make([]uint64, (n+63)/64)
	tb := k.tables.Load()
	for i := range tb.idle {
		tb.idle[i].mark(sl, sl.moving)
	}
	held := 0
	for _, w := range sl.moving {
		held += mathbits.OnesCount64(w)
	}
	sl.ends = make([]int32, 0, 2+held/batchWidth)
	sl.ends = append(sl.ends, int32(min(firstBatch, n)))
	held = 0
	for wi, w := range sl.moving {
		if wi == 0 {
			w &^= 1<<firstBatch - 1
		}
		for ; w != 0; w &= w - 1 {
			if held == batchWidth {
				sl.ends = append(sl.ends, int32(wi<<6|mathbits.TrailingZeros64(w)))
				held = 0
			}
			held++
		}
	}
	if n > firstBatch {
		sl.ends = append(sl.ends, int32(n))
	}
}

// scan fills buf with the sources of window bi that a batch must run — the
// live ones that move — and counts the live ones that are idle. The window
// is read a word of moving at a time: its set bits are the sources to run,
// and, since a source that moves is live, the idle ones are the live ones
// less those. Only a graph with tombstones is asked which nodes are live.
func (sl *sourceList) scan(bi int, buf *[batchWidth]int) (srcs []int, idle int64) {
	lo, hi := 0, int(sl.ends[bi])
	if bi > 0 {
		lo = int(sl.ends[bi-1])
	}
	g := sl.k.g
	live := hi - lo
	if g.NumLiveNodes() != g.NumNodes() {
		live = 0
		for i := lo; i < hi; i++ {
			if u := sl.at(i); g.NodeAlive(u) {
				if sl.moving == nil {
					buf[live] = u
				}
				live++
			}
		}
	} else if sl.moving == nil {
		for i := lo; i < hi; i++ {
			buf[i-lo] = sl.at(i)
		}
	}
	if sl.moving == nil {
		return buf[:live], 0
	}
	m := 0
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := sl.moving[wi]
		if wi == lo>>6 {
			w &^= 1<<uint(lo&63) - 1
		}
		if end := hi - wi<<6; end < 64 {
			w &= 1<<uint(end) - 1
		}
		for ; w != 0; w &= w - 1 {
			buf[m] = sl.at(wi<<6 | mathbits.TrailingZeros64(w))
			m++
		}
	}
	return buf[:m], int64(live - m)
}

// SweepAll runs the sweep from every node of the graph; see SweepFrom. It is
// the one call that may run on the product's condensation (condense.go):
// when the automaton has a cycle and at least minCondensedBatches batches
// follow the first, a call on a kernel that keeps a condensation runs every
// batch on it; otherwise batch 0 runs here on the level loop and is emitted
// before the fan-out starts, and the rest of the call is condensed — and the
// condensation kept — if the build fits under what batch 0 was charged.
// That is decided from the automaton's shape and batch 0's own count, never
// from timing or the worker count, so the pairs, their order and every count
// are the same either way.
func (k *Kernel) SweepAll(workers int, mt *Meter, chargeRows bool, emit func(Runs) error) error {
	return k.sweepMany(sourceList{k: k, n: k.g.NumNodes()}, true, workers, mt, chargeRows, emit)
}

// SweepFrom runs the sweep from every node of sources — none, if the list
// is empty — tombstoned nodes skipped, and hands emit the (source, target)
// pairs as Runs: sources in the order given, each source's targets
// ascending, a call carrying one or more whole sources and never none.
// Distinct ascending sources therefore arrive in lexicographic order with
// no final sort, and the sequence is byte-identical at any worker count.
//
// The sources are cut into windows (sourceList) and each window is one
// batch: its idle sources are charged, the rest — at most 64, in the first
// window firstBatch — run through the batched loop, batches fanned out over
// ForEachEmit's pool of workers, one batch per claim, so memory in flight is
// bounded (workers × emitWindowPerWorker batches) and a blocked emit
// throttles the pool. A single source has nothing to share and runs
// Kernel.Sweep.
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
func (k *Kernel) SweepFrom(sources []int, workers int, mt *Meter, chargeRows bool, emit func(Runs) error) error {
	return k.sweepMany(sourceList{k: k, n: len(sources), sources: sources}, false, workers, mt, chargeRows, emit)
}

// sweepMany is the all-sources driver under SweepAll and SweepFrom; all says
// the sources are every node of the graph.
func (k *Kernel) sweepMany(sl sourceList, all bool, workers int, mt *Meter, chargeRows bool, emit func(Runs) error) error {
	n := sl.n
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
			u := sl.at(0)
			if !k.g.NodeAlive(u) {
				return Runs{}, nil
			}
			vs, err := k.Sweep(u, sc, mt, chargeRows)
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
	sl.cut()
	batches := len(sl.ends)
	done := 0 // batches run before the fan-out
	var cd *condensation
	if all && batches-1 >= minCondensedBatches && k.cyclic {
		if cd = k.condensed.Load(); cd != nil {
			cd.record(mt, 0)
		} else {
			var err error
			if cd, err = k.probe(&sl, mt, emit); err != nil {
				return err
			}
			done = 1
		}
	}
	return ForEachEmit(batches-done, workers, getBatch, putBatch, func(bi int, b *batch) (Runs, error) {
		return k.runBatch(&sl, bi+done, cd, b, mt)
	}, emit)
}

// runBatch runs window bi of sl: on the condensation when the call has
// one, on the level loop otherwise.
func (k *Kernel) runBatch(sl *sourceList, bi int, cd *condensation, b *batch, mt *Meter) (Runs, error) {
	var buf [batchWidth]int
	tb := k.tables.Load()
	srcs, idle := sl.scan(bi, &buf)
	if len(srcs) > 0 {
		k.c.addBatchRun()
	}
	if cd != nil {
		return k.sweepCondensed(cd, srcs, idle, b, mt)
	}
	return k.sweepBatch(tb, srcs, idle, b, mt)
}

// probe rents before a cold kernel's call may buy: it runs batch 0 on the
// level loop, hands its pairs to emit — a streamed reply's first byte does
// not wait for the build — and then tries to condense under what the batch
// was charged. A nil condensation means the call stays on the level loop. It
// runs on the caller's goroutine, so it contains panics the way the fan-out
// does; a panic leaves nothing published.
func (k *Kernel) probe(sl *sourceList, mt *Meter, emit func(Runs) error) (cd *condensation, err error) {
	defer recoverTo(func(e error) { cd, err = nil, e })
	b := getBatch()
	defer putBatch(b)
	part, err := k.runBatch(sl, 0, nil, b, mt)
	if err != nil {
		return nil, err
	}
	if err := emit(part); err != nil {
		return nil, err
	}
	return k.condense(b.found, mt)
}
