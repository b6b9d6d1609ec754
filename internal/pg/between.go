package pg

import "sort"

// This file is the kernel's search between two anchors: the shortest
// accepted paths from src to dst, found from both ends at once. A forward
// side grows from (src, starts) over the forward transition table, a
// backward side from the accepting states at dst over the reverse table,
// one whole level at a time on whichever side has the smaller frontier.
// The search stops after the first level whose discoveries the other side
// has already seen, and what it returns is the shortest-path DAG — the
// product states that lie on some shortest accepted path, each with its
// distance from the source — so everything a caller does afterwards costs
// O(DAG + output), not O(ball) and never O(|N|·|Q|).
//
// Termination and exactness. Write lf, lb for the levels the two sides
// have completed and D for the distance sought. The state at position i of
// a shortest path sits at forward level i and backward level D−i, so as
// soon as D ≤ lf+lb the state at position min(lf, D) is in both tables,
// and the later of its two discoveries reports it: a meeting is seen no
// later than the level that makes lf+lb reach D. It cannot be seen
// earlier, because a state in both tables at levels f ≤ lf and b ≤ lb
// witnesses an accepted path of length f+b. So at the first meeting
// D = lf+lb exactly, and because the level that found it was expanded
// whole, the meeting set is every state at forward level lf and backward
// level lb — position lf of every shortest path. Walking forward-tight
// edges (the forward level drops by one) back from it reaches exactly the
// states at positions < lf, walking backward-tight edges on from it
// exactly those at positions > lf. If a side drains first there is no
// accepted path at all, after at most twice the smaller of the two balls.
//
// Working state is sized by what the search touches: two hash tables and
// two queues, no per-product-state array — a fresh kernel per call (the
// one-shot evaluators) stays O(automaton + touched). Scanning goes through
// the graph's label index or, for a wide negated guard, a filtered pass
// over the adjacency row; the bought neighbor tables of the sweep loops
// are not used, since a search this small never repays building them.

// Meet is the outcome of one Between search.
type Meet struct {
	// Src is the source anchor: the node every shortest path starts at.
	Src int
	// Len is the length of the shortest accepted paths from Src to the
	// target anchor, −1 when there is none.
	Len int
	// Fwd and Bwd are the levels the forward and the backward side had
	// completed when they met (Fwd + Bwd = Len) or when one of them drained.
	Fwd, Bwd int

	ids    []int32 // product ids on some shortest accepted path, ascending
	depths []int32 // depths[i] is the distance of ids[i] from the source
}

// IDs returns the product ids (Kernel.ID) of the states that lie on some
// shortest accepted path, ascending; Depths()[i] is the distance of IDs()[i]
// from the source. A product edge between two such states is on a shortest
// accepted path exactly when the depth rises by one along it. The slices
// must not be modified.
func (m *Meet) IDs() []int32    { return m.ids }
func (m *Meet) Depths() []int32 { return m.depths }

// Index returns the position in IDs of the product state with the given id,
// −1 when it lies on no shortest accepted path.
func (m *Meet) Index(id int) int {
	i := sort.Search(len(m.ids), func(i int) bool { return int(m.ids[i]) >= id })
	if i < len(m.ids) && int(m.ids[i]) == id {
		return i
	}
	return -1
}

// side is one direction of a search: the level every discovered state was
// discovered at, and the discovery queue whose tail is the frontier.
type side struct {
	tbl   [][]kTrans
	level map[int32]int32
	queue []int32
	lo    int   // queue[lo:] is the frontier
	depth int32 // level of the frontier
}

func (s *side) frontier() int { return len(s.queue) - s.lo }

// between is the state of one search and its accounting: every expanded
// state — on either side, and while marking the DAG — is one meter state.
type between struct {
	k        *Kernel
	mt       *Meter
	fwd, bwd side
	meet     []int32 // last level's discoveries the other side had seen

	pend, states    int64 // expanded states: since the last tick, flushed
	edges, reported int64 // adjacency entries examined: in all, told to the meter
	peak            int
}

// Between searches for the shortest accepted paths from src to dst — from
// (src, q₀), q₀ a start state, to (dst, q), q accepting — and returns their
// length and the shortest-path DAG. Work is metered as in Sweep: every
// CheckInterval expanded states, counting both sides, mt is ticked
// (cancellation, the states budget) and told the frontier and edge counts;
// a nil meter never fails. The search is sequential and top-down from both
// ends; it takes no plan.
func (k *Kernel) Between(src, dst int, mt *Meter) (*Meet, error) {
	if err := checkSweepSize(k.NumProductStates(), maxSweepStates); err != nil {
		return nil, err
	}
	tb := k.tables.Load()
	if tb.rt == nil {
		tb = k.upgrade(true, false)
	}
	b := k.getBetween(mt, tb)
	defer k.putBetween(b)
	for _, q := range k.starts {
		b.discover(&b.fwd, &b.bwd, int32(src*k.nq+q), 0)
	}
	for q, acc := range k.accept {
		if acc {
			b.discover(&b.bwd, &b.fwd, int32(dst*k.nq+q), 0)
		}
	}
	var err error
	for err == nil && len(b.meet) == 0 && b.fwd.frontier() > 0 && b.bwd.frontier() > 0 {
		// Tie: forward, so equal inputs expand equal states.
		if b.bwd.frontier() < b.fwd.frontier() {
			err = b.expand(&b.bwd, &b.fwd)
		} else {
			err = b.expand(&b.fwd, &b.bwd)
		}
	}
	m := &Meet{Src: src, Len: -1, Fwd: int(b.fwd.depth), Bwd: int(b.bwd.depth)}
	if err == nil && len(b.meet) > 0 {
		m.Len = m.Fwd + m.Bwd
		err = b.mark(m)
	}
	if terr := b.tick(0); err == nil {
		err = terr
	}
	mt.SweepProgress(0, b.edges-b.reported)
	k.c.AddStates(b.states)
	k.c.AddEdges(b.edges)
	k.c.ObserveFrontier(int64(b.peak))
	mt.SweepStatsSink().RecordSweep(1, 0, b.states, b.edges, int64(b.peak))
	if err != nil {
		return nil, err
	}
	return m, nil
}

// betweenPoolMax is the largest search, in discovered states a side, whose
// tables go back to the kernel's pool: clearing a Go map costs its capacity,
// not its length, so one huge search must not tax every small one after it.
const betweenPoolMax = 1 << 12

// getBetween returns search state for one Between call, recycled from the
// kernel's pool when a previous search left some (a cached kernel's warm
// searches then allocate their result and little else).
func (k *Kernel) getBetween(mt *Meter, tb *sweepTables) *between {
	b, ok := k.betweens.Get().(*between)
	if !ok {
		b = &between{k: k}
		b.fwd.level, b.bwd.level = map[int32]int32{}, map[int32]int32{}
	}
	b.mt, b.fwd.tbl, b.bwd.tbl = mt, tb.ft, tb.rt
	return b
}

// putBetween resets b in O(touched) and pools it, unless it grew too large.
func (k *Kernel) putBetween(b *between) {
	if len(b.fwd.level) > betweenPoolMax || len(b.bwd.level) > betweenPoolMax {
		return
	}
	for _, s := range []*side{&b.fwd, &b.bwd} {
		clear(s.level)
		*s = side{level: s.level, queue: s.queue[:0]}
	}
	*b = between{k: k, fwd: b.fwd, bwd: b.bwd, meet: b.meet[:0]}
	k.betweens.Put(b)
}

// discover records id on side s at level lv unless s has it already; a
// discovery the other side has seen too is a meeting.
func (b *between) discover(s, other *side, id, lv int32) {
	if _, seen := s.level[id]; seen {
		return
	}
	s.level[id] = lv
	s.queue = append(s.queue, id)
	if _, hit := other.level[id]; hit {
		b.meet = append(b.meet, id)
	}
}

// tick flushes the expanded-state count to the meter, with the live
// frontier length and the edges examined since the last report.
func (b *between) tick(frontier int) error {
	n := b.pend
	if n == 0 {
		return nil
	}
	b.pend = 0
	b.states += n
	b.mt.SweepProgress(int64(frontier), b.edges-b.reported)
	b.reported = b.edges
	return b.mt.Tick(n)
}

// step counts one expanded state, ticking the meter every CheckInterval.
func (b *between) step(frontier int) error {
	if b.pend++; b.pend >= CheckInterval {
		return b.tick(frontier)
	}
	return nil
}

// expand runs one whole level of side s: the neighbors of every frontier
// state are discovered, then the discoveries become the frontier.
func (b *between) expand(s, other *side) error {
	hi := len(s.queue)
	if hi-s.lo > b.peak {
		b.peak = hi - s.lo
	}
	next := s.depth + 1
	visit := func(id int32) { b.discover(s, other, id, next) }
	for _, id := range s.queue[s.lo:hi] {
		if err := b.step(hi - s.lo); err != nil {
			return err
		}
		b.edges += b.k.neighbors(s.tbl, id, visit)
	}
	s.lo, s.depth = hi, next
	return nil
}

// mark collects the shortest-path DAG into m: from the meeting states back
// along forward-tight edges to the source (scanning the reverse table, the
// forward side's levels falling to 0) and on along backward-tight edges to
// the target (the forward table, the backward side's levels falling to 0).
// A state's level on the side that reaches it fixes its depth — the level
// itself before the meeting, Len minus it after.
func (b *between) mark(m *Meet) error {
	depth := make(map[int32]int32, 2*(m.Len+1))
	for _, id := range b.meet {
		depth[id] = int32(m.Fwd)
	}
	trace := func(tbl [][]kTrans, level map[int32]int32, toDepth func(lv int32) int32) error {
		stack := append([]int32(nil), b.meet...)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lv := level[id]
			if lv == 0 {
				continue
			}
			if err := b.step(len(stack)); err != nil {
				return err
			}
			b.edges += b.k.neighbors(tbl, id, func(nid int32) {
				if nlv, ok := level[nid]; !ok || nlv != lv-1 {
					return
				}
				if _, marked := depth[nid]; !marked {
					depth[nid] = toDepth(lv - 1)
					stack = append(stack, nid)
				}
			})
		}
		return nil
	}
	if err := trace(b.bwd.tbl, b.fwd.level, func(lv int32) int32 { return lv }); err != nil {
		return err
	}
	if err := trace(b.fwd.tbl, b.bwd.level, func(lv int32) int32 { return int32(m.Len) - lv }); err != nil {
		return err
	}
	m.ids = make([]int32, 0, len(depth))
	for id := range depth {
		m.ids = append(m.ids, id)
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	m.depths = make([]int32, len(m.ids))
	for i, id := range m.ids {
		m.depths[i] = depth[id]
	}
	return nil
}

// neighbors calls visit with the product id of every state one transition
// of tbl away from id — successors over the forward table, predecessors
// over the reverse one — once per matching (transition, edge), and returns
// the adjacency entries examined. Rows come from the graph, so an overlay's
// removed edges and the edges of its removed nodes are never seen.
func (k *Kernel) neighbors(tbl [][]kTrans, id int32, visit func(id int32)) int64 {
	g, nq := k.g, k.nq
	v := int(id) / nq
	var edges int64
	ts := tbl[int(id)-v*nq]
	for ti := range ts {
		t := &ts[ti]
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
				visit(int32(w*nq + t.state))
			}
			continue
		}
		for _, lid := range t.labels {
			adj := g.OutWithLabel(v, lid)
			if t.in {
				adj = g.InWithLabel(v, lid)
			}
			edges += int64(len(adj))
			for _, ei := range adj {
				w := g.EdgeTgt(ei)
				if t.in {
					w = g.EdgeSrc(ei)
				}
				visit(int32(w*nq + t.state))
			}
		}
	}
	return edges
}
