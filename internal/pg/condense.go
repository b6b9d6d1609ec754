package pg

import (
	"math"
	mathbits "math/bits"
	"slices"
	"sync"
)

// This file is the second way an all-sources call can finish (DESIGN §20).
// An all-pairs answer is reachability in the product G × A, and all states
// of one strongly connected component of the product have the same answer;
// so the product reachable from every live node is condensed once —
// components numbered in topological order, the DAG between them in CSR
// form — and every batch walks that DAG in rank order, one word of sources
// per component, each component exactly once. The condensation is a
// function of the graph revision and the automaton, which is what a kernel
// is: the first SweepAll that buys it builds it in pooled scratch, keeps
// what the batches read on the kernel (Kernel.condensed), and returns the
// scratch to the pool; every later SweepAll on the kernel runs all of its
// batches on it.

// minCondensedBatches is the number of batches that must remain after batch
// 0 for a call to consider condensing. The build scans every reachable
// product edge once, writes it down and walks it twice more; its worst case
// is a clique, where a level-loop batch scans each edge about once and a
// condensed batch costs nothing, and there it pays for itself when six
// batches follow (BenchmarkSweepAll's cold rows: clique-300 has five left
// and stays on the level loop, clique-330 has six and must not lose).
const minCondensedBatches = 6

// condensation is the condensed reachable product of one kernel, reduced to
// what sweepCondensed reads: per source the ranks its start states enter,
// and per rank the component's size, successors and accepting nodes. It is
// built once, published on the kernel, and then read by every worker of
// every call and never written.
type condensation struct {
	starts  []int32 // starts[u*len(k.starts)+j]: rank of (u, k.starts[j]); unset for a tombstoned u
	size    []int32 // states in the component
	succOff []int32
	succ    []int32 // successor ranks, deduplicated; every one higher than its component's
	accOff  []int32
	accNode []int32 // graph nodes with an accepting state in the component (may repeat)

	states  int64 // product states reachable from some source
	largest int32
}

// condScratch is the working state of one build. The build numbers reached
// product states densely (ids), so apart from num — the one slab over the
// whole product, cleared by replaying ids like a batch's — every array is
// sized by what was reached. None of it outlives the build: freeze copies
// what the batches read into a condensation, and the scratch goes back to
// condPool.
type condScratch struct {
	num []int32 // per product state: 1 + its number, 0 if not reached
	ids []int32 // number → product state, in numbering order
	off []int32 // adj[off[i]:off[i+1]] are the successors of number i
	adj []int32 // successors as numbers; parallel product edges repeat

	// Tarjan's working state, by number. order lists the numbers as their
	// components closed, one component after the other; first[t] is where
	// the t-th closed starts.
	idx, low []int32
	stack    []int32
	frames   []tarjanFrame
	order    []int32
	first    []int32

	// The component DAG, by rank: every edge points to a higher rank.
	comp    []int32 // per number: its component's rank
	size    []int32
	succOff []int32
	succ    []int32
	accOff  []int32
	accNode []int32
	mark    []int32 // succ deduplication: last rank that listed this one, plus one

	limit   int   // states the build may number
	edges   int64 // adjacency entries the build examined
	rented  int64 // rows + entries it read through the label index
	largest int32
}

type tarjanFrame struct {
	v, next int32 // number, cursor into adj
}

var condPool sync.Pool // of *condScratch

func getCondScratch() *condScratch {
	if cs, ok := condPool.Get().(*condScratch); ok {
		return cs
	}
	return &condScratch{}
}

// grow returns s with length n, reusing its array when it is large enough;
// the contents are unspecified.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// hasCycle reports whether the automaton, as resolved against the graph, has
// a cycle reachable from its start states. Without one the product is a DAG
// no deeper than the automaton: a batch scans a state at most that many
// times and there is nothing to collapse. NewKernel asks once and keeps the
// answer (Kernel.cyclic).
func (k *Kernel) hasCycle() bool {
	color := make([]uint8, k.nq) // 0 unseen, 1 on the current path, 2 done
	for _, q := range k.starts {
		if color[q] == 0 && k.cycleFrom(q, color) {
			return true
		}
	}
	return false
}

func (k *Kernel) cycleFrom(q int, color []uint8) bool {
	color[q] = 1
	for i := range k.trans[q] {
		switch to := k.trans[q][i].To; color[to] {
		case 1:
			return true
		case 0:
			if k.cycleFrom(to, color) {
				return true
			}
		}
	}
	color[q] = 2
	return false
}

// condense tries to buy the condensation after batch 0 has been rented on
// the level loop: it numbers the product reachable from the start states of
// every live node, and gives up — nil, the call stays on the level loop —
// the moment that would take more states than the charged (source, state)
// discoveries batch 0 put on the meter. Unmetered work is thereby never more
// than metered work already done, a states budget bounds the build as it
// bounds the sweep, and the choice depends on counts only. The meter is
// polled every CheckInterval states; an error leaves nothing behind.
//
// A complete build is published on the kernel for every later call. Cold
// calls that race each build one; the first to publish wins, and the others
// run on the winner's, which is the same condensation.
func (k *Kernel) condense(charged int64, mt *Meter) (*condensation, error) {
	if int64(k.g.NumLiveNodes())*int64(len(k.starts)) > charged {
		return nil, nil // the roots alone are more than was charged
	}
	cs := getCondScratch()
	defer condPool.Put(cs)
	ok, err := cs.build(k, int(min(charged, int64(k.NumProductStates()))), mt)
	k.payRent(cs.rented, err)
	if !ok || err != nil {
		return nil, err
	}
	cd := cs.freeze(k)
	if k.condensed.CompareAndSwap(nil, cd) {
		k.c.addCondensationBuilt()
	} else {
		cd = k.condensed.Load()
	}
	k.c.AddEdges(cs.edges)
	cd.record(mt, cs.edges)
	return cd, nil
}

// record reports the condensation a call runs on to its analyze sink, with
// the adjacency entries the call examined building it: none when it was
// kept from an earlier call.
func (cd *condensation) record(mt *Meter, edges int64) {
	mt.SweepStatsSink().RecordCondensation(cd.states, int64(len(cd.size)), int64(len(cd.succ)), int64(cd.largest), edges)
}

// freeze copies out of a complete build what the batches read, each array
// at its exact length: the DAG by rank, and, in place of num and comp, the
// rank every source's start states enter.
func (cs *condScratch) freeze(k *Kernel) *condensation {
	nq, ns := k.nq, len(k.starts)
	cd := &condensation{
		starts:  make([]int32, k.g.NumNodes()*ns),
		size:    slices.Clone(cs.size),
		succOff: slices.Clone(cs.succOff),
		succ:    slices.Clone(cs.succ),
		accOff:  slices.Clone(cs.accOff),
		accNode: slices.Clone(cs.accNode),
		states:  int64(len(cs.ids)),
		largest: cs.largest,
	}
	for u := 0; u < k.g.NumNodes(); u++ {
		if !k.g.NodeAlive(u) {
			continue
		}
		for j, q := range k.starts {
			cd.starts[u*ns+j] = cs.comp[cs.num[u*nq+q]-1]
		}
	}
	return cd
}

// build runs the three passes — reach, Tarjan, DAG — and reports whether
// the condensation is complete: false when numbering would pass limit.
func (cs *condScratch) build(k *Kernel, limit int, mt *Meter) (bool, error) {
	for _, id := range cs.ids {
		cs.num[id] = 0
	}
	cs.ids, cs.adj, cs.limit, cs.edges, cs.rented, cs.largest = cs.ids[:0], cs.adj[:0], limit, 0, 0, 0
	if total := k.NumProductStates(); len(cs.num) < total {
		cs.num = make([]int32, total)
	}
	if ok, err := cs.reach(k, mt); !ok || err != nil {
		return false, err
	}
	if err := cs.tarjan(mt); err != nil {
		return false, err
	}
	return true, cs.dag(k, mt)
}

// number returns the number of product state id, giving it the next one if
// it is new; ok is false when that would pass the limit. The list append
// precedes the slab write it names, so ids covers num whatever stops the
// build.
func (cs *condScratch) number(id int) (n int32, ok bool) {
	if n = cs.num[id]; n == 0 {
		if len(cs.ids) >= cs.limit {
			return 0, false
		}
		cs.ids = append(cs.ids, int32(id))
		n = int32(len(cs.ids))
		cs.num[id] = n
	}
	return n - 1, true
}

// link writes product state id down as a successor of the state being
// scanned, numbering it if it is new; false when that would pass the limit.
func (cs *condScratch) link(id int) bool {
	n, ok := cs.number(id)
	if ok {
		cs.adj = append(cs.adj, n)
	}
	return ok
}

// reach numbers every product state reachable from a start state of a live
// node and records its successors, scanning each state's adjacency once
// through the same three paths as sweepBatch: dense ok table, bought
// neighbor table, rented label index.
func (cs *condScratch) reach(k *Kernel, mt *Meter) (bool, error) {
	g, nq := k.g, k.nq
	tb := k.tables.Load()
	for u := 0; u < g.NumNodes(); u++ {
		if !g.NodeAlive(u) {
			continue
		}
		for _, q := range k.starts {
			if _, ok := cs.number(u*nq + q); !ok {
				return false, nil
			}
		}
	}
	cs.off = append(cs.off[:0], 0)
	for i := 0; i < len(cs.ids); i++ {
		if i%CheckInterval == 0 {
			if err := mt.Check(); err != nil {
				return false, err
			}
		}
		id := int(cs.ids[i])
		v := id / nq
		ft := tb.ft[id-v*nq]
		for ti := range ft {
			t := &ft[ti]
			if t.ok != nil {
				adj := g.Out(v)
				if t.in {
					adj = g.In(v)
				}
				cs.edges += int64(len(adj))
				for _, ei := range adj {
					if !t.ok[g.EdgeLabelID(ei)] {
						continue
					}
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if !cs.link(w*nq + t.state) {
						return false, nil
					}
				}
				continue
			}
			for li, lid := range t.labels {
				if la := t.adjs[li]; la != nil {
					tos := la.Neighbors(v)
					cs.edges += int64(len(tos))
					for _, w := range tos {
						if !cs.link(int(w)*nq + t.state) {
							return false, nil
						}
					}
					continue
				}
				adj := g.OutWithLabel(v, lid)
				if t.in {
					adj = g.InWithLabel(v, lid)
				}
				cs.edges += int64(len(adj))
				cs.rented += int64(len(adj)) + 1
				for _, ei := range adj {
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if !cs.link(w*nq + t.state) {
						return false, nil
					}
				}
			}
		}
		if len(cs.adj) > math.MaxInt32 {
			return false, nil // offsets are int32
		}
		cs.off = append(cs.off, int32(len(cs.adj)))
	}
	return true, nil
}

// closed is the index Tarjan gives the states of a finished component: no
// edge into one can lower a lowlink.
const closed = math.MaxInt32

// tarjan finds the strongly connected components of the numbered product,
// iteratively. Components close in reverse topological order — one closes
// only after everything it reaches — and comp holds the closing order until
// dag turns it into ranks.
func (cs *condScratch) tarjan(mt *Meter) error {
	r := len(cs.ids)
	cs.idx, cs.low, cs.comp = grow(cs.idx, r), grow(cs.low, r), grow(cs.comp, r)
	clear(cs.idx)
	cs.stack, cs.frames, cs.order, cs.first = cs.stack[:0], cs.frames[:0], cs.order[:0], cs.first[:0]
	idx, low, off, adj := cs.idx, cs.low, cs.off, cs.adj
	var counter int32
	push := func(v int32) {
		counter++
		idx[v], low[v] = counter, counter
		cs.stack = append(cs.stack, v)
		cs.frames = append(cs.frames, tarjanFrame{v, off[v]})
	}
	for root := int32(0); int(root) < r; root++ {
		if idx[root] != 0 {
			continue
		}
		push(root)
		for len(cs.frames) > 0 {
			f := &cs.frames[len(cs.frames)-1]
			v := f.v
			if f.next < off[v+1] {
				w := adj[f.next]
				f.next++
				if idx[w] == 0 {
					if counter%CheckInterval == 0 {
						if err := mt.Check(); err != nil {
							return err
						}
					}
					push(w)
				} else if idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			cs.frames = cs.frames[:len(cs.frames)-1]
			if low[v] == idx[v] {
				t := int32(len(cs.first))
				cs.first = append(cs.first, int32(len(cs.order)))
				for {
					w := cs.stack[len(cs.stack)-1]
					cs.stack = cs.stack[:len(cs.stack)-1]
					cs.order = append(cs.order, w)
					cs.comp[w], idx[w] = t, closed
					if w == v {
						break
					}
				}
			}
			if len(cs.frames) > 0 {
				if p := cs.frames[len(cs.frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return nil
}

// dag turns closing order into topological ranks — the last component
// closed is rank 0, so every edge between components points to a higher
// rank — and lists, per rank, the component's size, its distinct successor
// ranks and the graph nodes of its accepting states.
func (cs *condScratch) dag(k *Kernel, mt *Meter) error {
	r, c := len(cs.ids), len(cs.first)
	cs.first = append(cs.first, int32(r))
	for v := range cs.comp {
		cs.comp[v] = int32(c-1) - cs.comp[v]
	}
	cs.size, cs.mark = grow(cs.size, c), grow(cs.mark, c)
	clear(cs.mark)
	cs.succOff, cs.accOff = append(cs.succOff[:0], 0), append(cs.accOff[:0], 0)
	cs.succ, cs.accNode = cs.succ[:0], cs.accNode[:0]
	nq := k.nq
	for rank := 0; rank < c; rank++ {
		if rank%CheckInterval == 0 {
			if err := mt.Check(); err != nil {
				return err
			}
		}
		t := c - 1 - rank
		members := cs.order[cs.first[t]:cs.first[t+1]]
		cs.size[rank] = int32(len(members))
		cs.largest = max(cs.largest, int32(len(members)))
		for _, v := range members {
			for _, w := range cs.adj[cs.off[v]:cs.off[v+1]] {
				if to := cs.comp[w]; int(to) != rank && cs.mark[to] != int32(rank)+1 {
					cs.mark[to] = int32(rank) + 1
					cs.succ = append(cs.succ, to)
				}
			}
			if id := int(cs.ids[v]); k.accept[id%nq] {
				cs.accNode = append(cs.accNode, int32(id/nq))
			}
		}
		cs.succOff = append(cs.succOff, int32(len(cs.succ)))
		cs.accOff = append(cs.accOff, int32(len(cs.accNode)))
	}
	return nil
}

// sweepCondensed is sweepBatch on the condensation: the same sources, the
// same runs, the same states charged, idle sources included. The batch's
// seen slab is indexed by component rank, and pend — a bitmap over ranks
// walked by a forward cursor — holds the components a source has reached and
// that have not been popped. Every DAG edge points to a higher rank, so a
// component is popped once, after every word that will ever reach it has
// arrived; popping it charges popcount(word) × size (source, state)
// discoveries — what the level loop counts for the same states one by one —
// in steps of CheckInterval, so cancellation and the states budget land
// within one interval however large the component. Edges are DAG edges
// examined.
func (k *Kernel) sweepCondensed(cd *condensation, srcs []int, idle int64, b *batch, mt *Meter) (Runs, error) {
	b.reset(condensedLoop, len(cd.size), k.g.NumNodes())
	stopErr := b.charge(idle*int64(len(k.idleStarts)), mt)
	seen, pend := b.seen, b.pend[:(len(cd.size)+63)/64]
	ns := len(k.starts)
	lo := len(pend)
	for i, u := range srcs {
		for _, c := range cd.starts[u*ns : (u+1)*ns] {
			if seen[c] == 0 {
				b.touched = append(b.touched, c)
				pend[c>>6] |= 1 << uint(c&63)
				lo = min(lo, int(c>>6))
			}
			seen[c] |= 1 << uint(i)
		}
	}
	pending := int64(len(b.touched))

	var edges, edgesReported int64
	reported := b.found
	for wi := lo; wi < len(pend) && stopErr == nil; {
		w := pend[wi]
		if w == 0 {
			wi++
			continue
		}
		pend[wi] = w & (w - 1)
		c := wi<<6 | mathbits.TrailingZeros64(w)
		pending--
		s := seen[c]
		if stopErr = b.charge(int64(mathbits.OnesCount64(s))*int64(cd.size[c]), mt); stopErr != nil {
			break
		}
		succ := cd.succ[cd.succOff[c]:cd.succOff[c+1]]
		edges += int64(len(succ))
		for _, to := range succ {
			if seen[to] == 0 {
				b.touched = append(b.touched, to)
				pend[to>>6] |= 1 << uint(to&63)
				pending++
			}
			seen[to] |= s
		}
		for _, v := range cd.accNode[cd.accOff[c]:cd.accOff[c+1]] {
			b.accept(int(v), s)
		}
		if b.found-reported >= CheckInterval {
			reported = b.found
			mt.SweepProgress(pending, edges-edgesReported)
			edgesReported = edges
		}
	}
	if stopErr == nil {
		stopErr = mt.Tick(b.found - b.ticked)
	}
	mt.SweepProgress(0, edges-edgesReported)
	k.c.AddStates(b.found)
	k.c.AddEdges(edges)
	mt.SweepStatsSink().RecordCondensedSweep(int64(len(srcs))+idle, idle, b.found, edges)
	if stopErr != nil {
		return Runs{}, stopErr
	}
	return b.runs(srcs)
}
