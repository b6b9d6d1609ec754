package pg

import (
	"math"
	mathbits "math/bits"
	"sync"
)

// This file is the second way an all-sources call can finish (DESIGN §20).
// An all-pairs answer is reachability in the product G × A, and all states
// of one strongly connected component of the product have the same answer;
// so a call that has enough batches left condenses the reachable product
// once — components numbered in topological order, the DAG between them in
// CSR form — and every later batch walks that DAG in rank order, one word
// of sources per component, each component exactly once. The condensation
// is built per call in pooled scratch and returned to the pool when the
// call ends: nothing is kept on the kernel, the plan or the graph.

// minCondensedBatches is the number of batches that must remain after batch
// 0 for a call to consider condensing. The build scans every reachable
// product edge once, writes it down and walks it twice more; its worst case
// is a clique, where a level-loop batch scans each edge about once and a
// condensed batch costs nothing, and there it pays for itself when six
// batches follow (BenchmarkSweepAll: clique-300 has five left and stays on
// the level loop, clique-330 has six and must not lose).
const minCondensedBatches = 6

// condensation is the condensed reachable product of one call. The build
// numbers reached product states densely (ids), so apart from num — the one
// slab over the whole product, cleared by replaying ids like a batch's —
// every array is sized by what was reached. After the build only num, comp
// and the per-component arrays are read, by every worker, and never
// written.
type condensation struct {
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
	size    []int32 // states in the component
	succOff []int32
	succ    []int32 // successor ranks, deduplicated
	accOff  []int32
	accNode []int32 // graph nodes with an accepting state in the component (may repeat)
	mark    []int32 // succ deduplication: last rank that listed this one, plus one

	limit   int   // states the build may number
	edges   int64 // adjacency entries the build examined
	rented  int64 // rows + entries it read through the label index
	largest int32
}

type tarjanFrame struct {
	v, next int32 // number, cursor into adj
}

var condPool sync.Pool // of *condensation

func getCondensation() *condensation {
	if cd, ok := condPool.Get().(*condensation); ok {
		return cd
	}
	return &condensation{}
}

// grow returns s with length n, reusing its array when it is large enough;
// the contents are unspecified.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// cyclic reports whether the automaton, as resolved against the graph, has
// a cycle reachable from its start states. Without one the product is a DAG
// no deeper than the automaton: a batch scans a state at most that many
// times and there is nothing to collapse.
func (k *Kernel) cyclic() bool {
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
func (k *Kernel) condense(charged int64, mt *Meter) (*condensation, error) {
	if int64(k.g.NumLiveNodes())*int64(len(k.starts)) > charged {
		return nil, nil // the roots alone are more than was charged
	}
	cd := getCondensation()
	ok, err := cd.build(k, int(min(charged, int64(k.NumProductStates()))), mt)
	k.payRent(cd.rented)
	if !ok || err != nil {
		condPool.Put(cd)
		return nil, err
	}
	k.c.addCondensationBuilt()
	k.c.AddEdges(cd.edges)
	mt.SweepStatsSink().RecordCondensation(int64(len(cd.ids)), int64(len(cd.size)), int64(len(cd.succ)), int64(cd.largest), cd.edges)
	return cd, nil
}

// build runs the three passes — reach, Tarjan, DAG — and reports whether
// the condensation is complete: false when numbering would pass limit.
func (cd *condensation) build(k *Kernel, limit int, mt *Meter) (bool, error) {
	for _, id := range cd.ids {
		cd.num[id] = 0
	}
	cd.ids, cd.adj, cd.limit, cd.edges, cd.rented, cd.largest = cd.ids[:0], cd.adj[:0], limit, 0, 0, 0
	if total := k.NumProductStates(); len(cd.num) < total {
		cd.num = make([]int32, total)
	}
	if ok, err := cd.reach(k, mt); !ok || err != nil {
		return false, err
	}
	if err := cd.tarjan(mt); err != nil {
		return false, err
	}
	return true, cd.dag(k, mt)
}

// number returns the number of product state id, giving it the next one if
// it is new; ok is false when that would pass the limit. The list append
// precedes the slab write it names, so ids covers num whatever stops the
// build.
func (cd *condensation) number(id int) (n int32, ok bool) {
	if n = cd.num[id]; n == 0 {
		if len(cd.ids) >= cd.limit {
			return 0, false
		}
		cd.ids = append(cd.ids, int32(id))
		n = int32(len(cd.ids))
		cd.num[id] = n
	}
	return n - 1, true
}

// link writes product state id down as a successor of the state being
// scanned, numbering it if it is new; false when that would pass the limit.
func (cd *condensation) link(id int) bool {
	n, ok := cd.number(id)
	if ok {
		cd.adj = append(cd.adj, n)
	}
	return ok
}

// reach numbers every product state reachable from a start state of a live
// node and records its successors, scanning each state's adjacency once
// through the same three paths as sweepBatch: dense ok table, bought
// neighbor table, rented label index.
func (cd *condensation) reach(k *Kernel, mt *Meter) (bool, error) {
	g, nq := k.g, k.nq
	tb := k.tables.Load()
	for u := 0; u < g.NumNodes(); u++ {
		if !g.NodeAlive(u) {
			continue
		}
		for _, q := range k.starts {
			if _, ok := cd.number(u*nq + q); !ok {
				return false, nil
			}
		}
	}
	cd.off = append(cd.off[:0], 0)
	for i := 0; i < len(cd.ids); i++ {
		if i%CheckInterval == 0 {
			if err := mt.Check(); err != nil {
				return false, err
			}
		}
		id := int(cd.ids[i])
		v := id / nq
		ft := tb.ft[id-v*nq]
		for ti := range ft {
			t := &ft[ti]
			if t.ok != nil {
				adj := g.Out(v)
				if t.in {
					adj = g.In(v)
				}
				cd.edges += int64(len(adj))
				for _, ei := range adj {
					if !t.ok[g.EdgeLabelID(ei)] {
						continue
					}
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if !cd.link(w*nq + t.state) {
						return false, nil
					}
				}
				continue
			}
			for li, lid := range t.labels {
				if la := t.adjs[li]; la != nil {
					tos := la.Neighbors(v)
					cd.edges += int64(len(tos))
					for _, w := range tos {
						if !cd.link(int(w)*nq + t.state) {
							return false, nil
						}
					}
					continue
				}
				adj := g.OutWithLabel(v, lid)
				if t.in {
					adj = g.InWithLabel(v, lid)
				}
				cd.edges += int64(len(adj))
				cd.rented += int64(len(adj)) + 1
				for _, ei := range adj {
					w := g.EdgeTgt(ei)
					if t.in {
						w = g.EdgeSrc(ei)
					}
					if !cd.link(w*nq + t.state) {
						return false, nil
					}
				}
			}
		}
		if len(cd.adj) > math.MaxInt32 {
			return false, nil // offsets are int32
		}
		cd.off = append(cd.off, int32(len(cd.adj)))
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
func (cd *condensation) tarjan(mt *Meter) error {
	r := len(cd.ids)
	cd.idx, cd.low, cd.comp = grow(cd.idx, r), grow(cd.low, r), grow(cd.comp, r)
	clear(cd.idx)
	cd.stack, cd.frames, cd.order, cd.first = cd.stack[:0], cd.frames[:0], cd.order[:0], cd.first[:0]
	idx, low, off, adj := cd.idx, cd.low, cd.off, cd.adj
	var counter int32
	push := func(v int32) {
		counter++
		idx[v], low[v] = counter, counter
		cd.stack = append(cd.stack, v)
		cd.frames = append(cd.frames, tarjanFrame{v, off[v]})
	}
	for root := int32(0); int(root) < r; root++ {
		if idx[root] != 0 {
			continue
		}
		push(root)
		for len(cd.frames) > 0 {
			f := &cd.frames[len(cd.frames)-1]
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
			cd.frames = cd.frames[:len(cd.frames)-1]
			if low[v] == idx[v] {
				t := int32(len(cd.first))
				cd.first = append(cd.first, int32(len(cd.order)))
				for {
					w := cd.stack[len(cd.stack)-1]
					cd.stack = cd.stack[:len(cd.stack)-1]
					cd.order = append(cd.order, w)
					cd.comp[w], idx[w] = t, closed
					if w == v {
						break
					}
				}
			}
			if len(cd.frames) > 0 {
				if p := cd.frames[len(cd.frames)-1].v; low[v] < low[p] {
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
func (cd *condensation) dag(k *Kernel, mt *Meter) error {
	r, c := len(cd.ids), len(cd.first)
	cd.first = append(cd.first, int32(r))
	for v := range cd.comp {
		cd.comp[v] = int32(c-1) - cd.comp[v]
	}
	cd.size, cd.mark = grow(cd.size, c), grow(cd.mark, c)
	clear(cd.mark)
	cd.succOff, cd.accOff = append(cd.succOff[:0], 0), append(cd.accOff[:0], 0)
	cd.succ, cd.accNode = cd.succ[:0], cd.accNode[:0]
	nq := k.nq
	for rank := 0; rank < c; rank++ {
		if rank%CheckInterval == 0 {
			if err := mt.Check(); err != nil {
				return err
			}
		}
		t := c - 1 - rank
		members := cd.order[cd.first[t]:cd.first[t+1]]
		cd.size[rank] = int32(len(members))
		cd.largest = max(cd.largest, int32(len(members)))
		for _, v := range members {
			for _, w := range cd.adj[cd.off[v]:cd.off[v+1]] {
				if to := cd.comp[w]; int(to) != rank && cd.mark[to] != int32(rank)+1 {
					cd.mark[to] = int32(rank) + 1
					cd.succ = append(cd.succ, to)
				}
			}
			if id := int(cd.ids[v]); k.accept[id%nq] {
				cd.accNode = append(cd.accNode, int32(id/nq))
			}
		}
		cd.succOff = append(cd.succOff, int32(len(cd.succ)))
		cd.accOff = append(cd.accOff, int32(len(cd.accNode)))
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
	b.reset(len(cd.size), k.g.NumNodes())
	stopErr := b.charge(idle*int64(len(k.idleStarts)), mt)
	seen, pend := b.seen, b.pend[:(len(cd.size)+63)/64]
	nq := k.nq
	lo := len(pend)
	for i, u := range srcs {
		for _, q := range k.starts {
			c := cd.comp[cd.num[u*nq+q]-1]
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
