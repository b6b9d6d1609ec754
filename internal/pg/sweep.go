package pg

import (
	mathbits "math/bits"
	"sort"

	"graphquery/internal/graph"
)

// This file is the kernel's single-source reachability loop (its
// all-sources sibling, 64 sources per machine word, is in sweepall.go): a
// level-synchronous sweep built from two composable pieces. Word-packed
// bitset frontiers and visited sets clear in O(visited) via touched-word
// lists; and each level expands top-down or bottom-up à la Beamer, decided
// at the level barrier from frontier mass vs. unvisited mass, the bottom-up
// side running the reverse transition relation over the reverse CSR the
// graph already maintains. Either direction computes the same node set and
// the result is sorted ascending, so it does not depend on which levels ran
// bottom-up — the crossval differential suite holds the loop to an
// independent oracle on that, and the batched loop is in turn held to this
// one.

const (
	// frontierAlpha is the direction-switch threshold: a level expands
	// bottom-up when alpha·|frontier| exceeds the unvisited state count.
	// Beamer's heuristic compares edge masses; state counts are the cheap
	// proxy available without degree sums, and the constant errs toward
	// top-down (bottom-up only pays when most states are about to be
	// discovered anyway).
	frontierAlpha = 8
	// maxSweepStates bounds the product size the loop accepts: its queue
	// holds product ids as int32.
	maxSweepStates = 1<<31 - 1
	// scanCheckMask amortizes cancellation polls over the work that
	// never ticks the meter — states examined but not discovered: one poll
	// every 4096 states the bottom-up scan examines, and one every 4096
	// adjacency entries a top-down scan examines between its ticks.
	scanCheckMask = 1<<12 - 1
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
// Sweep, those whose state ids do not fit its 32-bit queue — as a
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
// a table the kernel tries to buy — unless the sweep was stopped (stop is
// its error): building a table then would only delay the stopped query's
// return, and the balance keeps the deposit for the next sweep to buy with.
func (k *Kernel) payRent(rented int64, stop error) {
	if rented > 0 && k.g.PayRent(rented) && stop == nil {
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

// sweep is the state of one single-source sweep: a visited bitset over
// product ids (v·nq + q), an emitted bitset over graph nodes, and the
// discovery queue. A Scratch keeps one, sized for the kernel it last ran,
// and reuses it sweep to sweep (warm sweeps allocate nothing).
type sweep struct {
	k    *Kernel
	vis  bitset // visited, over product ids
	emit bitset // emitted, over graph nodes
	frb  bitset // current frontier bitmap, rebuilt by freeze

	// queue holds every discovered state (product ids) in discovery order:
	// queue[lo:hi] is the current frontier, queue[hi:] the next.
	queue  []int32
	lo, hi int
	nodes  []int // emitted graph nodes, in discovery order

	tb     *sweepTables
	mt     *Meter
	pend   int64 // discoveries since the last meter flush
	rented int64 // rows looked up + entries examined through the label index
}

// sweepFor returns the scratch's sweep state for k, building it on first
// use or when the scratch last served another kernel.
func (sc *Scratch) sweepFor(k *Kernel) *sweep {
	if sc.sw == nil || sc.sw.k != k {
		sc.sw = &sweep{
			k:    k,
			vis:  newBitset(k.NumProductStates()),
			emit: newBitset(k.g.NumNodes()),
		}
	}
	return sc.sw
}

// visit discovers product state (v, q): marks it visited, enqueues it for
// the next level, and emits v on its first accepting hit.
func (sw *sweep) visit(v, q int) {
	id := v*sw.k.nq + q
	if !sw.vis.testSet(id) {
		return
	}
	sw.queue = append(sw.queue, int32(id))
	sw.pend++
	if sw.k.accept[q] && sw.emit.testSet(v) {
		sw.nodes = append(sw.nodes, v)
	}
}

// expand runs one level in the given direction and returns the adjacency
// entries it examined.
func (sw *sweep) expand(bottomUp bool) (int64, error) {
	if bottomUp {
		return sw.expandBottomUp()
	}
	return sw.expandTopDown()
}

// expandTopDown scans the current frontier's outgoing transitions.
func (sw *sweep) expandTopDown() (int64, error) {
	k, g := sw.k, sw.k.g
	nq := k.nq
	var edges, polled int64
	for _, id := range sw.queue[sw.lo:sw.hi] {
		if sw.pend >= CheckInterval {
			polled = edges
			if err := sw.flush(); err != nil {
				return edges, err
			}
		} else if edges-polled > scanCheckMask {
			polled = edges
			if err := sw.mt.Check(); err != nil {
				return edges, err
			}
		}
		v := int(id) / nq
		ft := sw.tb.ft[int(id)-v*nq]
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
						sw.visit(g.EdgeSrc(ei), t.state)
					} else {
						sw.visit(g.EdgeTgt(ei), t.state)
					}
				}
				continue
			}
			for i, lid := range t.labels {
				if la := t.adjs[i]; la != nil {
					tos := la.Neighbors(v)
					edges += int64(len(tos))
					for _, w := range tos {
						sw.visit(int(w), t.state)
					}
					continue
				}
				if t.in {
					adj := g.InWithLabel(v, lid)
					edges += int64(len(adj))
					sw.rented += int64(len(adj)) + 1
					for _, ei := range adj {
						sw.visit(g.EdgeSrc(ei), t.state)
					}
					continue
				}
				adj := g.OutWithLabel(v, lid)
				edges += int64(len(adj))
				sw.rented += int64(len(adj)) + 1
				for _, ei := range adj {
					sw.visit(g.EdgeTgt(ei), t.state)
				}
			}
		}
	}
	return edges, nil
}

// expandBottomUp iterates the unvisited states word by word (skipping
// all-visited words wholesale) and, per state, scans its predecessor
// transitions for an edge from a state in the frozen level frontier —
// stopping at the first hit, which is the asymmetry that makes bottom-up
// cheap on the dense levels where nearly everything is about to be
// discovered.
func (sw *sweep) expandBottomUp() (int64, error) {
	k, g, frontier := sw.k, sw.k.g, sw.frb.words
	nq := k.nq
	maxID := k.NumProductStates()
	var edges, rented int64
	defer func() { sw.rented += rented }()
	var examined int
	words := sw.vis.words
	for wi := range words {
		base := wi << 6
		rem := ^words[wi]
		for rem != 0 {
			b := mathbits.TrailingZeros64(rem)
			rem &= rem - 1
			id := base + b
			if id >= maxID {
				break
			}
			// Re-check against the live word: a state discovered earlier in
			// this level (the snapshot `rem` predates it) stays discovered.
			if words[wi]&(uint64(1)<<uint(b)) != 0 {
				continue
			}
			if examined++; examined&scanCheckMask == 0 {
				if err := sw.mt.Check(); err != nil {
					return edges, err
				}
			}
			v := id / nq
			q := id - v*nq
			rt := sw.tb.rt[q]
			if len(rt) == 0 {
				continue
			}
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
						if testBit(frontier, u*nq+t.state) {
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
							if testBit(frontier, int(u)*nq+t.state) {
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
						if testBit(frontier, u*nq+t.state) {
							found = true
							break scan
						}
					}
				}
			}
			if found {
				sw.visit(v, q)
				if sw.pend >= CheckInterval {
					if err := sw.flush(); err != nil {
						return edges, err
					}
				}
			}
		}
	}
	return edges, nil
}

// promote seals the level: the next frontier becomes current and its size
// is returned.
func (sw *sweep) promote() int {
	sw.lo, sw.hi = sw.hi, len(sw.queue)
	return sw.hi - sw.lo
}

// freeze builds the current frontier's bitmap, for a level about to run
// bottom-up.
func (sw *sweep) freeze() {
	if sw.frb.words == nil {
		sw.frb = newBitset(sw.k.NumProductStates())
	}
	sw.frb.reset()
	for _, id := range sw.queue[sw.lo:sw.hi] {
		sw.frb.testSet(int(id))
	}
}

// flush forces pending meter ticks out (the sub-interval tail).
func (sw *sweep) flush() error {
	n := sw.pend
	if n == 0 {
		return nil
	}
	sw.pend = 0
	return sw.mt.Tick(n)
}

// chargeRows charges one row per node emitted since the last call, stopping
// at the first budget error. A nil meter charges nothing.
func (sw *sweep) chargeRows(rows *Meter, charged int) (int, error) {
	if rows == nil {
		return charged, nil
	}
	for ; charged < len(sw.nodes); charged++ {
		if err := rows.AddRows(1); err != nil {
			return charged, err
		}
	}
	return charged, nil
}

// reset clears all per-sweep state, keeping capacity for reuse.
func (sw *sweep) reset() {
	sw.vis.reset()
	sw.emit.reset()
	sw.queue, sw.lo, sw.hi = sw.queue[:0], 0, 0
	sw.nodes = sw.nodes[:0]
	sw.pend, sw.rented = 0, 0
	sw.mt, sw.tb = nil, nil
}

// Sweep computes all graph nodes v such that an accepting product state
// (v, q) is reachable from (src, q₀) for some start state q₀, sorted
// ascending. The returned slice aliases sc and is valid until the next call
// with the same scratch. A nil meter never fails; on error the scratch is
// still reset, so the caller may reuse it. With chargeRows set, every node
// emitted into the result charges one row on mt, one AddRows call per row,
// so a MaxRows budget fails with the meter reading exactly MaxRows+1
// instead of after a whole sweep's batch.
//
// This is the fixpoint loop of every anchored evaluator, and the per-source
// step of the all-sources driver for a list of one: seed, then alternate
// expand / promote level barriers until the frontier drains. Every
// CheckInterval discovered states the count is flushed to the shared meter,
// which polls for cancellation or an exhausted states budget; rows are
// charged and live progress reported at the first barrier after as many,
// not at every level — a long-diameter sweep (a path graph runs one state
// per level) would otherwise spend its time at barriers. The loop runs
// inline on the calling goroutine: it must not allocate when warm, and a
// long-diameter sweep runs one tiny level after another.
//
// Determinism: expansion order is fixed by the frontier queue order and the
// bottom-up scan runs in id order — so the queue, emission order, and
// counter values are independent of whether the neighbor tables were
// already compiled.
func (k *Kernel) Sweep(src int, sc *Scratch, mt *Meter, chargeRows bool) ([]int, error) {
	total := k.NumProductStates()
	if err := checkSweepSize(total, maxSweepStates); err != nil {
		return nil, err
	}
	sw := sc.sweepFor(k)
	sw.mt, sw.tb = mt, k.tables.Load()
	var rows *Meter
	if chargeRows {
		rows = mt
	}

	for _, q := range k.starts {
		sw.visit(src, q)
	}
	frontier := sw.promote()
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
		if bottomUp && sw.tb.rt == nil {
			sw.tb = k.upgrade(true, false)
		}
		ed, err := sw.expand(bottomUp)
		if edges += ed; err != nil {
			stopErr = err
			break
		}
		discovered := len(sw.queue) - sw.hi
		visited += discovered
		if ss != nil {
			ss.RecordLevel(level, 1, int64(frontier), int64(discovered), ed, int64(total-visited), bottomUp)
		}
		// Direction for the coming level, decided at the barrier (so the
		// frontier bitmap is built only when needed).
		bottomUp = discovered*frontierAlpha > total-visited
		frontier = sw.promote()
		if bottomUp {
			sw.freeze()
		}
		peak = max(peak, frontier)
		if unreported += discovered; unreported >= CheckInterval {
			unreported = 0
			if charged, stopErr = sw.chargeRows(rows, charged); stopErr != nil {
				break
			}
			mt.SweepProgress(int64(frontier), edges-edgesReported)
			edgesReported = edges
		}
	}
	if stopErr == nil {
		_, stopErr = sw.chargeRows(rows, charged)
	}
	if err := sw.flush(); err != nil && stopErr == nil {
		stopErr = err
	}
	mt.SweepProgress(0, edges-edgesReported)
	k.c.AddStates(int64(visited))
	k.c.AddEdges(edges)
	k.c.ObserveFrontier(int64(peak))
	ss.RecordSweep(1, 0, int64(visited), edges, int64(peak))
	nodes, rented := sw.nodes, sw.rented
	sw.reset()
	k.payRent(rented, stopErr)
	if stopErr != nil {
		return nil, stopErr
	}
	sort.Ints(nodes)
	return nodes, nil
}
