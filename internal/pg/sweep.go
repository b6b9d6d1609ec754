package pg

import (
	mathbits "math/bits"
	"sort"
	"sync"

	"graphquery/internal/graph"
)

// This file is the kernel's single-source reachability loop (its
// all-sources sibling, 64 sources per machine word, is in sweepall.go): a
// level-synchronous sweep built from three composable pieces. Word-packed
// bitset frontiers and visited sets clear in O(visited) via touched-word
// lists; each level expands top-down or bottom-up à la Beamer, decided at
// the level barrier from frontier mass vs. unvisited mass, the bottom-up
// side running the reverse transition relation over the reverse CSR the
// graph already maintains; and product states are partitioned by graph
// node into P shard loops with batched cross-shard exchange at the
// barriers, P = 1 being the plain sequential sweep. Every combination
// computes the same node set and sorts it ascending, so results are
// byte-identical across plans — the crossval differential suite holds the
// loop to an independent oracle on that, and the batched loop is in turn
// held to this one.

const (
	// frontierAlpha is the direction-switch threshold: a level expands
	// bottom-up when alpha·|frontier| exceeds the unvisited state count.
	// Beamer's heuristic compares edge masses; state counts are the cheap
	// proxy available without degree sums, and the constant errs toward
	// top-down (bottom-up only pays when most states are about to be
	// discovered anyway).
	frontierAlpha = 8
	// maxSweepStates bounds the product size the loop accepts: local ids
	// are int32 and cross-shard exchange ships global ids as uint32.
	maxSweepStates = 1<<31 - 1
	// bottomUpCheckMask amortizes cancellation polls over the bottom-up
	// scan, which examines many states that are never discovered (and so
	// never tick the meter): one poll every 4096 examined states.
	bottomUpCheckMask = 1<<12 - 1
	// negIndexCut: a negated guard admitting at most this many labels runs
	// on the label-indexed CSR instead of a dense scan. The ok table names
	// the admitted set at compile time, so a co-finite guard like !{b} over
	// a two-label graph becomes a plain indexed scan of the one admitted
	// label — no per-edge label load (a cache miss on large graphs) and no
	// wasted non-matching edges. Guards admitting many labels keep the
	// dense scan: per-label CSR lookups would cost more than one pass over
	// the adjacency list.
	negIndexCut = 4
)

// checkSweepSize refuses products of more states than a loop's limit — for
// Sweep, those whose state ids do not fit its 32-bit local ids — as a
// states-budget error: the product is larger than any sweep this kernel can
// account for.
func checkSweepSize(states, limit int) error {
	if states > limit {
		return &BudgetError{Resource: "states", Limit: int64(limit)}
	}
	return nil
}

// kTrans is one transition compiled for the sweep loop. In the forward
// table `state` is the successor automaton state and `in` the transition's
// own direction; in the reverse table `state` is the predecessor and `in`
// is flipped, so both expansions scan with the same code.
type kTrans struct {
	state int
	in    bool // scan incoming edges (neighbor = edge source)
	// labels are the admitted label IDs, scanned through the label index.
	labels []int
	// ok (labelID → guard matches) is set instead of labels for a negated
	// guard admitting more than negIndexCut labels: one filtered pass over
	// the full adjacency list, an array load per edge instead of the
	// symbolic Guard.Matches.
	ok []bool
	// adjs[i] is the graph's neighbor table for labels[i] in the scan
	// direction; nil while the label is still rented (see sweepTables) or
	// when the graph is too large for int32 ids. Neighbor node ids directly,
	// so the indexed hot loops do no binary search and no Edge-struct load.
	adjs []*graph.NeighborTable
}

// sweepTables is one immutable compilation of the kernel's transitions.
// A kernel starts with the forward table only, which costs O(automaton):
// one-shot evaluators compile a fresh kernel per call, and every cached plan
// is compiled afresh after a commit. The reverse table is added when a level
// first runs bottom-up or a search runs from both ends.
//
// Neighbor tables are not the kernel's: they belong to the graph's version
// chain (graph.NeighborTable), which keeps at most one per (label,
// direction) and serves it to every version whose edges under that label
// are the ones it was built from. Compiling takes the valid tables that
// exist — it never builds — so a kernel compiled after a commit that did not
// touch its labels starts on the tables an earlier revision paid for. The
// rest follows a rent-or-buy rule with no constant in it: a sweep deposits
// what it read through the graph's label index — one per row looked up, the
// binary search a table saves even where the row is empty, plus one per
// entry examined — on the chain's balance (payRent), a table is built only
// when the balance covers what building it costs, |N| + |E_label|, and the
// cost is withdrawn.
type sweepTables struct {
	ft, rt [][]kTrans
	// idle is what the all-sources driver reads of ft to tell whether a source
	// can leave its start states, idleRent what one that cannot owes for the
	// reading (sweepall.go).
	idle     []idleProbe
	idleRent int64
}

// newTables wraps a forward and a reverse table (nil until needed) as one
// snapshot.
func (k *Kernel) newTables(ft, rt [][]kTrans) *sweepTables {
	tb := &sweepTables{ft: ft, rt: rt}
	tb.idle, tb.idleRent = k.idleProbes(ft)
	return tb
}

// upgrade publishes and returns a snapshot that has at least the reverse
// table (reverse) on top of what the current one has and, with buy set, the
// neighbor tables the chain can now give its rented slots. Concurrent sweeps
// keep the snapshot they loaded.
func (k *Kernel) upgrade(reverse, buy bool) *sweepTables {
	k.compileMu.Lock()
	defer k.compileMu.Unlock()
	cur := k.tables.Load()
	reverse = reverse || cur.rt != nil
	fresh := false
	if buy {
		f, r := k.buy(cur.ft), k.buy(cur.rt)
		fresh = f || r
	}
	if !fresh && reverse == (cur.rt != nil) {
		return cur
	}
	ft, rt := cur.ft, cur.rt
	if fresh {
		ft = k.compile(false)
	}
	if reverse && (fresh || rt == nil) {
		rt = k.compile(true)
	}
	next := k.newTables(ft, rt)
	k.tables.Store(next)
	return next
}

// buy asks the chain for a table for every slot of tbl that still scans the
// label index — an existing one is free, a missing one is built if the
// balance covers it — and reports whether any slot can now be filled.
func (k *Kernel) buy(tbl [][]kTrans) (fresh bool) {
	for q := range tbl {
		for ti := range tbl[q] {
			t := &tbl[q][ti]
			for i, lid := range t.labels {
				if t.adjs[i] != nil {
					continue
				}
				la, built := k.g.BuyNeighborTable(lid, t.in)
				if built {
					k.c.addNeighborTablesBuilt()
				}
				fresh = fresh || la != nil
			}
		}
	}
	return fresh
}

// payRent settles a sweep that read rows through the label index: the rows
// and entries it read go on the chain's balance, and once that could cover
// a table the kernel tries to buy.
func (k *Kernel) payRent(rented int64) {
	if rented > 0 && k.g.PayRent(rented) {
		k.upgrade(false, true)
	}
}

// compile builds the forward (reverse=false) or reverse transition table,
// giving every indexed transition the neighbor tables the graph's chain
// holds for this version; the caller holds compileMu (or is the
// constructor).
func (k *Kernel) compile(reverse bool) [][]kTrans {
	nl := k.g.NumLabels()
	tbl := make([][]kTrans, k.nq)
	for q := range k.trans {
		for ti := range k.trans[q] {
			t := &k.trans[q][ti]
			kt := kTrans{state: t.To, in: t.Back, labels: t.LabelIDs}
			at := q
			if reverse {
				kt.state, kt.in, at = q, !t.Back, t.To
			}
			if t.Negated {
				kt.labels = nil
				ok := make([]bool, nl)
				for l := range ok {
					if ok[l] = t.Guard.Matches(k.g.LabelName(l)); ok[l] {
						kt.labels = append(kt.labels, l)
					}
				}
				if len(kt.labels) > negIndexCut {
					kt.labels, kt.ok = nil, ok
				}
			}
			kt.adjs = make([]*graph.NeighborTable, len(kt.labels))
			for i, lid := range kt.labels {
				kt.adjs[i] = k.g.NeighborTable(lid, kt.in)
			}
			tbl[at] = append(tbl[at], kt)
		}
	}
	return tbl
}

// shard is one partition of a sweep: it owns the product states of the
// graph nodes v with v mod P equal to its index, holding them in
// shard-local dense bitsets (local node v/P, local product id
// (v/P)·nq + q). The driver runs all shards level-synchronously;
// everything that crosses a shard boundary is a flat payload — seed ids,
// per-destination outboxes of global product ids, and frozen frontier
// bitmaps for bottom-up levels.
type shard struct {
	k    *Kernel
	s, p int // shard index, shard count
	nloc int // local node count: nodes v with v%p == s

	// Power-of-two shard counts replace the /p and %p on every routed
	// discovery and every bottom-up edge probe with a shift and a mask —
	// integer division by a runtime value is the single most expensive
	// instruction in those loops. pow2 is constant per sweep, so the branch
	// predicts perfectly.
	pow2  bool
	shift uint
	mask  int

	vis  bitset // visited, over local product ids
	emit bitset // emitted, over local node ids
	frb  bitset // current frontier bitmap, rebuilt by freeze
	// peers[d] is shard d's frontier bitmap (the slice is shared by the
	// whole shard set): unchanged from a freeze to the next promote, so
	// the bottom-up scans read their peers' without locks.
	peers [][]uint64

	// queue holds every discovered state (local product ids) in discovery
	// order: queue[lo:hi] is the current frontier, queue[hi:] the next.
	queue  []int32
	lo, hi int
	out    [][]uint32 // per-destination outboxes, global product ids
	nodes  []int      // emitted graph nodes, global

	tb     *sweepTables
	mt     *Meter
	pend   int64 // discoveries since the last meter flush
	rented int64 // rows looked up + entries examined through the label index
}

func newShard(k *Kernel, s, p int, peers [][]uint64) *shard {
	nloc := (k.g.NumNodes() - s + p - 1) / p
	sh := &shard{
		k: k, s: s, p: p, nloc: nloc,
		vis:   newBitset(nloc * k.nq),
		emit:  newBitset(nloc),
		out:   make([][]uint32, p),
		peers: peers,
	}
	if p&(p-1) == 0 {
		sh.pow2 = true
		sh.shift = uint(mathbits.TrailingZeros(uint(p)))
		sh.mask = p - 1
	}
	return sh
}

// owner returns the shard index owning graph node u.
func (sh *shard) owner(u int) int {
	if sh.pow2 {
		return u & sh.mask
	}
	return u % sh.p
}

// local returns node u's local index within its owning shard.
func (sh *shard) local(u int) int {
	if sh.pow2 {
		return u >> sh.shift
	}
	return u / sh.p
}

// visit discovers product state (v, q). A state owned by another shard is
// batched into the owner's outbox (deduplicated there, against the owner's
// visited set, at the level barrier); a local one is marked visited,
// enqueued for the next level, and emits v on its first accepting hit.
func (sh *shard) visit(v, q int) {
	if d := sh.owner(v); d != sh.s {
		sh.out[d] = append(sh.out[d], uint32(v*sh.k.nq+q))
		return
	}
	lv := sh.local(v)
	li := lv*sh.k.nq + q
	if !sh.vis.testSet(li) {
		return
	}
	sh.queue = append(sh.queue, int32(li))
	sh.pend++
	if sh.k.accept[q] && sh.emit.testSet(lv) {
		sh.nodes = append(sh.nodes, v)
	}
}

// expand runs this shard's part of one level in the given direction and
// returns the adjacency entries it examined.
func (sh *shard) expand(bottomUp bool) (int64, error) {
	if bottomUp {
		return sh.expandBottomUp()
	}
	return sh.expandTopDown()
}

// expandTopDown scans the current frontier's outgoing transitions, visiting
// local discoveries and queueing remote ones into per-destination
// outboxes.
func (sh *shard) expandTopDown() (int64, error) {
	k, g := sh.k, sh.k.g
	nq, p, s := k.nq, sh.p, sh.s
	var edges int64
	for _, li := range sh.queue[sh.lo:sh.hi] {
		if sh.pend >= CheckInterval {
			if err := sh.flush(); err != nil {
				return edges, err
			}
		}
		lv := int(li) / nq
		v := lv*p + s
		ft := sh.tb.ft[int(li)-lv*nq]
		for ti := range ft {
			t := &ft[ti]
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
					if t.in {
						sh.visit(g.EdgeSrc(ei), t.state)
					} else {
						sh.visit(g.EdgeTgt(ei), t.state)
					}
				}
				continue
			}
			for i, lid := range t.labels {
				if la := t.adjs[i]; la != nil {
					tos := la.Neighbors(v)
					edges += int64(len(tos))
					for _, w := range tos {
						sh.visit(int(w), t.state)
					}
					continue
				}
				if t.in {
					adj := g.InWithLabel(v, lid)
					edges += int64(len(adj))
					sh.rented += int64(len(adj)) + 1
					for _, ei := range adj {
						sh.visit(g.EdgeSrc(ei), t.state)
					}
					continue
				}
				adj := g.OutWithLabel(v, lid)
				edges += int64(len(adj))
				sh.rented += int64(len(adj)) + 1
				for _, ei := range adj {
					sh.visit(g.EdgeTgt(ei), t.state)
				}
			}
		}
	}
	return edges, nil
}

// expandBottomUp iterates this shard's unvisited states word by word
// (skipping all-visited words wholesale) and, per state, scans its
// predecessor transitions for an edge from a state in the frozen level
// frontier — stopping at the first hit, which is the asymmetry that makes
// bottom-up cheap on the dense levels where nearly everything is about to
// be discovered.
func (sh *shard) expandBottomUp() (int64, error) {
	k, g, peers := sh.k, sh.k.g, sh.peers
	nq, p, s := k.nq, sh.p, sh.s
	maxID := sh.nloc * nq
	var edges, rented int64
	defer func() { sh.rented += rented }()
	var examined int
	// inFrontier reports whether predecessor state (u, q) is in the level's
	// frontier.
	inFrontier := func(u, q int) bool {
		return testBit(peers[sh.owner(u)], sh.local(u)*nq+q)
	}
	words := sh.vis.words
	for wi := range words {
		base := wi << 6
		if base >= maxID {
			break
		}
		rem := ^words[wi]
		for rem != 0 {
			b := mathbits.TrailingZeros64(rem)
			rem &= rem - 1
			li := base + b
			if li >= maxID {
				break
			}
			// Re-check against the live word: a state discovered earlier in
			// this level (the snapshot `rem` predates it) stays discovered.
			if words[wi]&(uint64(1)<<uint(b)) != 0 {
				continue
			}
			if examined++; examined&bottomUpCheckMask == 0 {
				if err := sh.mt.Check(); err != nil {
					return edges, err
				}
			}
			lv := li / nq
			q := li - lv*nq
			rt := sh.tb.rt[q]
			if len(rt) == 0 {
				continue
			}
			v := lv*p + s
			found := false
		scan:
			for ti := range rt {
				t := &rt[ti]
				if t.ok != nil {
					adj := g.Out(v)
					if t.in {
						adj = g.In(v)
					}
					for _, ei := range adj {
						edges++
						if !t.ok[g.EdgeLabelID(ei)] {
							continue
						}
						u := g.EdgeTgt(ei)
						if t.in {
							u = g.EdgeSrc(ei)
						}
						if inFrontier(u, t.state) {
							found = true
							break scan
						}
					}
					continue
				}
				for i, lid := range t.labels {
					if la := t.adjs[i]; la != nil {
						for _, u := range la.Neighbors(v) {
							edges++
							if inFrontier(int(u), t.state) {
								found = true
								break scan
							}
						}
						continue
					}
					adj := g.OutWithLabel(v, lid)
					if t.in {
						adj = g.InWithLabel(v, lid)
					}
					rented++
					for _, ei := range adj {
						edges++
						rented++
						u := g.EdgeTgt(ei)
						if t.in {
							u = g.EdgeSrc(ei)
						}
						if inFrontier(u, t.state) {
							found = true
							break scan
						}
					}
				}
			}
			if found {
				sh.visit(v, q)
				if sh.pend >= CheckInterval {
					if err := sh.flush(); err != nil {
						return edges, err
					}
				}
			}
		}
	}
	return edges, nil
}

// absorb folds the states the other shards discovered for this one (global
// product ids, taken from column sh.s of every outbox in source order) into
// its next frontier, deduplicating against visited. Returns states taken.
func (sh *shard) absorb(shards []*shard) int64 {
	nq := sh.k.nq
	var shipped int64
	for _, from := range shards {
		ids := from.out[sh.s]
		from.out[sh.s] = ids[:0]
		shipped += int64(len(ids))
		for _, id := range ids {
			sh.visit(int(id)/nq, int(id)%nq)
		}
	}
	return shipped
}

// promote seals the level: the next frontier becomes current and its size
// is returned.
func (sh *shard) promote() int {
	sh.lo, sh.hi = sh.hi, len(sh.queue)
	return sh.hi - sh.lo
}

// freeze builds the current frontier's bitmap, for a level about to run
// bottom-up.
func (sh *shard) freeze() {
	if sh.frb.words == nil {
		sh.frb = newBitset(sh.nloc * sh.k.nq)
		sh.peers[sh.s] = sh.frb.words
	}
	sh.frb.reset()
	for _, li := range sh.queue[sh.lo:sh.hi] {
		sh.frb.testSet(int(li))
	}
}

// flush forces pending meter ticks out (the sub-interval tail).
func (sh *shard) flush() error {
	n := sh.pend
	if n == 0 {
		return nil
	}
	sh.pend = 0
	return sh.mt.Tick(n)
}

// reset clears all per-sweep state, keeping capacity for reuse.
func (sh *shard) reset() {
	sh.vis.reset()
	sh.emit.reset()
	sh.queue, sh.lo, sh.hi = sh.queue[:0], 0, 0
	sh.nodes = sh.nodes[:0]
	for d := range sh.out {
		sh.out[d] = sh.out[d][:0]
	}
	sh.pend, sh.rented = 0, 0
	sh.mt, sh.tb = nil, nil
}

// shardsFor returns the scratch's shard set for k with p shards, building
// it on first use or when the kernel or shard count changes; otherwise it
// is reused sweep to sweep (warm sweeps allocate nothing).
func (sc *Scratch) shardsFor(k *Kernel, p int) []*shard {
	if sc.k != k || len(sc.shards) != p {
		sc.k, sc.shards = k, make([]*shard, p)
		peers := make([][]uint64, p)
		for s := range sc.shards {
			sc.shards[s] = newShard(k, s, p, peers)
		}
	}
	return sc.shards
}

// Sweep computes all graph nodes v such that an accepting product state
// (v, q) is reachable from (src, q₀) for some start state q₀, sorted
// ascending. The returned slice aliases sc and is valid until the next call
// with the same scratch. A nil meter never fails; on error the scratch is
// still reset, so the caller may reuse it. pl.Shards > 1 partitions the
// sweep over that many shard loops. With chargeRows set, every node
// emitted into the result charges one row on mt, one AddRows call per row,
// so a MaxRows budget fails with the meter reading exactly MaxRows+1
// instead of after a whole sweep's batch.
//
// This is the fixpoint loop of every anchored evaluator, and the per-source
// step of the all-sources driver for a list of one: seed, then alternate
// expand / exchange / promote level barriers until the frontier drains.
// Every CheckInterval discovered states the count is flushed to the shared
// meter, which polls for cancellation or an exhausted states budget; rows
// are charged and live progress reported at the first barrier after as
// many, not at every level — a long-diameter sweep (a path graph runs one
// state per level) would otherwise spend its time at barriers.
//
// Determinism: each shard's expansion order is fixed by its frontier queue
// order, outboxes are absorbed in source-shard order, and the bottom-up
// scan runs in local-id order — so queues, emission order, and counter
// values are independent of goroutine scheduling, and of whether the
// neighbor tables were already compiled.
func (k *Kernel) Sweep(src int, sc *Scratch, mt *Meter, pl Plan, chargeRows bool) ([]int, error) {
	total := k.NumProductStates()
	if err := checkSweepSize(total, maxSweepStates); err != nil {
		return nil, err
	}
	p := pl.Shards
	if p < 1 {
		p = 1
	}
	if n := k.g.NumNodes(); p > n && n > 0 {
		p = n // empty shards would just idle at every barrier
	}
	shards := sc.shardsFor(k, p)
	tb := k.tables.Load()
	for _, sh := range shards {
		sh.mt, sh.tb = mt, tb
	}
	if p > 1 {
		k.c.addShardSweeps(int64(p))
	}
	var rows *Meter
	if chargeRows {
		rows = mt
	}

	seed := shards[src%p]
	for _, q := range k.starts {
		seed.visit(src, q)
	}
	frontier := seed.promote()
	visited, peak := frontier, frontier
	charged, unreported := 0, frontier
	bottomUp := false
	var edges, edgesReported int64
	var stopErr error
	// Analyze telemetry rides the level barriers below: every quantity it
	// records — entering frontier, direction ran, edge delta, discoveries,
	// remaining unvisited mass — is already computed there, so analyze-off
	// sweeps pay one nil check per barrier and the loops stay untouched.
	ss := mt.SweepStatsSink()
	for level := 0; frontier > 0; level++ {
		levelEdges := edges
		if bottomUp && tb.rt == nil {
			tb = k.upgrade(true, false)
			for _, sh := range shards {
				sh.tb = tb
			}
		}
		// The unsharded sweep stays goroutine-free: it must not allocate
		// when warm, and a long-diameter sweep runs one tiny level after
		// another.
		var ed int64
		if p == 1 {
			ed, stopErr = shards[0].expand(bottomUp)
		} else {
			ed, stopErr = runLevel(shards, bottomUp)
		}
		if edges += ed; stopErr != nil {
			break
		}
		if !bottomUp && p > 1 {
			ss.RecordOutbox(exchange(shards))
		}
		discovered := 0
		for _, sh := range shards {
			discovered += len(sh.queue) - sh.hi
		}
		visited += discovered
		if ss != nil {
			ss.RecordLevel(level, 1, int64(frontier), int64(discovered), edges-levelEdges, int64(total-visited), bottomUp)
			if p > 1 {
				for i, sh := range shards {
					ss.RecordShardStates(i, int64(len(sh.queue)-sh.hi))
				}
			}
		}
		// Direction for the coming level, decided at the barrier so every
		// shard agrees (and frontier bitmaps are built only when needed).
		bottomUp = discovered*frontierAlpha > total-visited
		frontier = 0
		for _, sh := range shards {
			frontier += sh.promote()
			if bottomUp {
				sh.freeze()
			}
		}
		// Peak frontier is the cross-shard level sum: the level's frontier
		// is one logical queue partitioned P ways, so per-shard maxima
		// would under-report it.
		if frontier > peak {
			peak = frontier
		}
		if unreported += discovered; unreported >= CheckInterval {
			unreported = 0
			if charged, stopErr = chargeShardRows(rows, shards, charged); stopErr != nil {
				break
			}
			mt.SweepProgress(int64(frontier), edges-edgesReported)
			edgesReported = edges
		}
	}
	if stopErr == nil {
		_, stopErr = chargeShardRows(rows, shards, charged)
	}
	for _, sh := range shards {
		if err := sh.flush(); err != nil && stopErr == nil {
			stopErr = err
		}
	}
	mt.SweepProgress(0, edges-edgesReported)
	k.c.AddStates(int64(visited))
	k.c.AddEdges(edges)
	k.c.ObserveFrontier(int64(peak))
	ss.RecordSweep(1, 0, int64(visited), edges, int64(peak))
	var rented int64
	sc.nodes = sc.nodes[:0]
	for _, sh := range shards {
		sc.nodes = append(sc.nodes, sh.nodes...)
		rented += sh.rented
		sh.reset()
	}
	k.payRent(rented)
	if stopErr != nil {
		return nil, stopErr
	}
	sort.Ints(sc.nodes)
	return sc.nodes, nil
}

// runLevel expands every shard for one level, one goroutine per shard
// (the level barrier is the WaitGroup), and returns the adjacency entries
// examined.
func runLevel(shards []*shard, bottomUp bool) (int64, error) {
	edgeParts := make([]int64, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			edgeParts[i], errs[i] = sh.expand(bottomUp)
		}(i, sh)
	}
	wg.Wait()
	var edges int64
	var err error
	for i := range shards {
		edges += edgeParts[i]
		if err == nil {
			err = errs[i]
		}
	}
	return edges, err
}

// exchange moves every outbox to its owner at the level barrier: absorber
// d drains column d of every shard's outbox matrix, in source order, so
// the next frontier's queue order is deterministic. Each (src, dst) cell
// is written in the expand phase and read by exactly one absorber after
// the barrier, so the concurrent absorbers share nothing. Returns the
// total states shipped across shard boundaries.
func exchange(shards []*shard) int64 {
	var wg sync.WaitGroup
	shipped := make([]int64, len(shards))
	for d, sh := range shards {
		wg.Add(1)
		go func(d int, sh *shard) {
			defer wg.Done()
			shipped[d] = sh.absorb(shards)
		}(d, sh)
	}
	wg.Wait()
	total := int64(0)
	for _, n := range shipped {
		total += n
	}
	return total
}

// chargeShardRows charges one row per node emitted since the last call
// across all shards, stopping at the first budget error. A nil meter
// charges nothing.
func chargeShardRows(rows *Meter, shards []*shard, charged int) (int, error) {
	if rows == nil {
		return charged, nil
	}
	emitted := 0
	for _, sh := range shards {
		emitted += len(sh.nodes)
	}
	for charged < emitted {
		if err := rows.AddRows(1); err != nil {
			return charged, err
		}
		charged++
	}
	return charged, nil
}
