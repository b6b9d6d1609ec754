package pg

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"graphquery/internal/graph"
)

// State is a product-graph node (u, q): graph node u, automaton state q.
type State struct {
	Node  int
	State int
}

// Step is one product edge: the graph edge taken and the resulting state.
type Step struct {
	Edge int
	To   State
}

// Kernel runs product-graph search over one (graph, Semantics) pair. It
// snapshots the semantics into flat slices at construction, so the
// fixpoint loop touches no interfaces; a Kernel is immutable afterwards
// and safe for concurrent use (each goroutine brings its own Scratch).
type Kernel struct {
	g      *graph.Graph
	sem    Semantics
	c      *Counters
	nq     int
	starts []int
	accept []bool
	trans  [][]Trans
	// idleStarts is what the sweep of a source that examines no edge
	// discovers — the distinct start states — when none of them accepts, so
	// that such a sweep finds nothing; nil when one does, and no source is
	// idle (sweepall.go).
	idleStarts []int
	// sink is the automaton's only accepting state when no transition
	// leaves it and no sweep starts in it, else -1. A batch never queues
	// (v, sink): its seen word is acc[v] (sweepall.go).
	sink int
	// cyclic says the automaton has a cycle reachable from a start state
	// (hasCycle): only then can an all-sources call condense its product.
	cyclic bool

	// Sweep-loop transition tables (sweep.go): the current immutable
	// snapshot, replaced under compileMu when a sweep first needs the
	// reverse table or the graph's chain has neighbor tables to give it.
	tables    atomic.Pointer[sweepTables]
	compileMu sync.Mutex

	// condensed is the product's condensation, published by the first
	// SweepAll that builds one and read by every later call (condense.go);
	// nil until then.
	condensed atomic.Pointer[condensation]

	// pool recycles Scratch values across sweeps (GetScratch/PutScratch),
	// so warm queries stop reallocating O(product-states) buffers; betweens
	// does the same for the tables of Between searches (between.go).
	pool     sync.Pool
	betweens sync.Pool
}

// NewKernel builds a kernel over g with the given semantics; c (may be
// nil) receives the kernel's runtime counters.
func NewKernel(g *graph.Graph, sem Semantics, c *Counters) *Kernel {
	k := &Kernel{
		g:      g,
		sem:    sem,
		c:      c,
		nq:     sem.NumStates(),
		starts: sem.Starts(),
		accept: make([]bool, sem.NumStates()),
		trans:  make([][]Trans, sem.NumStates()),
	}
	for q := 0; q < k.nq; q++ {
		k.accept[q] = sem.Accepting(q)
		k.trans[q] = sem.Transitions(q)
	}
	for _, q := range k.starts {
		if k.accept[q] {
			k.idleStarts = nil
			break
		}
		if !slices.Contains(k.idleStarts, q) {
			k.idleStarts = append(k.idleStarts, q)
		}
	}
	k.sink = k.findSink()
	k.cyclic = k.hasCycle()
	k.tables.Store(k.newTables(k.compile(false), nil))
	return k
}

// findSink returns the automaton's accepting state if it is the only one,
// has no transition out and is not a start state, else -1.
func (k *Kernel) findSink() int {
	sink := -1
	for q, acc := range k.accept {
		if acc {
			if sink >= 0 {
				return -1
			}
			sink = q
		}
	}
	if sink < 0 || len(k.trans[sink]) > 0 || slices.Contains(k.starts, sink) {
		return -1
	}
	return sink
}

// Graph returns the kernel's graph.
func (k *Kernel) Graph() *graph.Graph { return k.g }

// Semantics returns the semantics the kernel was built over.
func (k *Kernel) Semantics() Semantics { return k.sem }

// Counters returns the counters sink attached at construction (may be nil).
func (k *Kernel) Counters() *Counters { return k.c }

// NumProductStates returns |N|·|Q|, the worst-case product size.
func (k *Kernel) NumProductStates() int { return k.g.NumNodes() * k.nq }

// ID packs a product state into a dense integer.
func (k *Kernel) ID(s State) int { return s.Node*k.nq + s.State }

// Unid unpacks a dense integer into a product state.
func (k *Kernel) Unid(i int) State { return State{Node: i / k.nq, State: i % k.nq} }

// Accepting reports whether s is accepting.
func (k *Kernel) Accepting(s State) bool { return k.accept[s.State] }

// Scratch holds the reusable buffers of repeated single-source sweeps over
// one kernel: one sweep state (bitset visited/emitted sets, the frontier
// queue and the result slice), built on the first sweep and rebuilt only
// when the scratch meets another kernel. One scratch serves one goroutine.
type Scratch struct {
	sw *sweep
}

// NewScratch returns an empty scratch for k; buffers are sized on first use.
func (k *Kernel) NewScratch() *Scratch { return &Scratch{} }

// GetScratch returns a pooled scratch for k, allocating only when the pool
// is empty. Pair with PutScratch when the sweep's result slice has been
// consumed (results alias the scratch).
func (k *Kernel) GetScratch() *Scratch {
	if sc, ok := k.pool.Get().(*Scratch); ok {
		return sc
	}
	return k.NewScratch()
}

// PutScratch returns a scratch obtained from GetScratch to the pool. The
// scratch must not be used afterwards.
func (k *Kernel) PutScratch(sc *Scratch) {
	if sc != nil {
		k.pool.Put(sc)
	}
}

// Succ returns the outgoing product edges of s in ascending (graph edge,
// transition) order — the deterministic order every path enumerator, the
// PMR construction, and the k-shortest tie-breaking rely on.
func (k *Kernel) Succ(s State) []Step {
	type cand struct{ edge, ord, to, back int }
	var cands []cand
	g := k.g
	trans := k.trans[s.State]
	for ti := range trans {
		t := &trans[ti]
		back := 0
		if t.Back {
			back = 1
		}
		add := func(ei int) {
			cands = append(cands, cand{ei, ti, t.To, back})
		}
		if t.Back {
			t.InEdges(g, s.Node, add)
		} else {
			t.OutEdges(g, s.Node, add)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].edge != cands[j].edge {
			return cands[i].edge < cands[j].edge
		}
		return cands[i].ord < cands[j].ord
	})
	out := make([]Step, len(cands))
	for i, c := range cands {
		to := g.EdgeTgt(c.edge)
		if c.back == 1 {
			to = g.EdgeSrc(c.edge)
		}
		out[i] = Step{Edge: c.edge, To: State{Node: to, State: c.to}}
	}
	return out
}
