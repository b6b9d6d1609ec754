package lrpq

import (
	"fmt"
	"sort"

	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// Plan is an ℓ-RPQ compiled against one graph: its variable-annotated
// automaton, the automaton's transitions resolved against the graph's label
// numbering, and the product kernel of the erased expression that
// shortest-mode queries search on (annotations cannot change reachability,
// and the Glushkov automaton of Erase(e) is Compile(e).Erased(), state for
// state). A Plan is immutable and serves concurrent queries; a serving
// layer caches one per (graph revision, query text) on the kernel it keeps
// for the erased expression, EvalBetween builds both per call.
type Plan struct {
	g     *graph.Graph
	a     *VNFA
	kern  *pg.Kernel
	steps [][]step // steps[q]: q's outgoing transitions
}

// step is one annotated transition resolved against the plan's graph.
type step struct {
	to int
	v  string // variable the edge is appended to, "" for none
	ok []bool // label ID → the guard admits it
}

// NewPlan compiles e against the graph of k, the product kernel of
// Erase(e); k's counters receive the work of every query evaluated on the
// plan.
func NewPlan(k *pg.Kernel, e Expr) *Plan {
	a, g := Compile(e), k.Graph()
	p := &Plan{g: g, a: a, kern: k, steps: make([][]step, a.NumStates)}
	// Every transition into a Glushkov position carries the position's
	// guard, so one label table per target state serves them all.
	oks := make([][]bool, a.NumStates)
	for q, ts := range a.Trans {
		p.steps[q] = make([]step, len(ts))
		for i, t := range ts {
			if oks[t.To] == nil {
				oks[t.To] = make([]bool, g.NumLabels())
				for l := range oks[t.To] {
					oks[t.To][l] = t.Guard.Matches(g.LabelName(l))
				}
			}
			p.steps[q][i] = step{to: t.To, v: t.Var, ok: oks[t.To]}
		}
	}
	return p
}

// Between computes m(σ_{src,dst}(⟦R⟧_G)) on the plan; see EvalBetween.
func (p *Plan) Between(src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	switch mode {
	case eval.Shortest:
		meet, err := p.Search(src, dst, opts.Meter)
		if err != nil {
			return nil, err
		}
		return p.Shortest(meet, opts.Limit, opts.Meter)
	case eval.All:
		if opts.MaxLen <= 0 && opts.Limit <= 0 {
			return nil, ErrUnbounded
		}
	case eval.Simple, eval.Trail:
	default:
		return nil, fmt.Errorf("lrpq: unknown mode %v", mode)
	}
	if opts.Limit > 0 && (mode != eval.All || opts.MaxLen <= 0) {
		return deepen(p.kern, p.a, src, dst, mode, opts)
	}
	// Nothing to cut, or mode all's own bound: one search holds the head.
	out, _, err := search(p.g, p.a, src, dst, mode, opts, p.kern.Counters())
	if err != nil {
		return nil, err
	}
	return gpath.Head(out, opts.Limit), nil
}

// Search is the first half of a shortest-mode query: the kernel's search
// between the two anchors (pg.Kernel.Between), metered by m. Shortest turns
// its result into the answer; a serving layer that accounts the two stages
// separately calls them one after the other.
func (p *Plan) Search(src, dst int, m *pg.Meter) (*pg.Meet, error) {
	return p.kern.Between(src, dst, m)
}

// Shortest enumerates the answers of a shortest-mode query from a Search
// result: every shortest path from meet.Src to meet.Dst matching the
// expression, each with every binding its accepting runs produce, in result
// order — path key, then binding key — stopping after limit results (0:
// all of them). It walks the shortest-path DAG only, so every step extends
// to an answer and the work follows the answers — their number, their
// length, the degree of the nodes on them and the configurations the
// automaton carries along them — whatever the size of the graph.
//
// Path keys compare as strings, "E12." before "E2." and "E1." before
// "E10.", so a walk that is to stop early has to leave each node by its
// edges in that order: decimal-string order of the edge index, not numeric
// order. The walk follows graph edges, not product edges: it carries along
// the set of automaton configurations the edges so far allow — the state,
// and which variable took which edge — so one path is visited once and all
// its bindings come out together.
func (p *Plan) Shortest(meet *pg.Meet, limit int, m *pg.Meter) ([]gpath.PathBinding, error) {
	if meet.Len < 0 {
		return nil, nil
	}
	w := &shortestWalk{p: p, meet: meet, limit: limit, m: m,
		tick:   pg.NewTicker(m, p.kern.Counters()),
		levels: make([]walkLevel, meet.Len+1)}
	w.levels[0].seqs = []varStep{{parent: -1}}
	w.levels[0].cfgs = []config{{state: int32(p.a.Start)}}
	err := w.walk(meet.Src, 0)
	if err == nil {
		err = w.tick.Flush()
	}
	if err != nil {
		return nil, err
	}
	return w.out, nil
}

// shortestWalk is one depth-first walk over the graph paths of a
// shortest-path DAG.
type shortestWalk struct {
	p     *Plan
	meet  *pg.Meet
	limit int
	m     *pg.Meter
	tick  pg.Ticker

	edges  []int       // the path walked so far
	levels []walkLevel // levels[d] belongs to the path's first d edges
	out    []gpath.PathBinding
}

// walkLevel is what the automaton can have done over the first d edges of
// the path: its distinct configurations, and the distinct ways those edges
// were given to variables.
type walkLevel struct {
	cfgs  []config
	seqs  []varStep
	cands []extension // the one-edge extensions of cfgs, in walk order
}

// config is one automaton configuration: a state, and the variable
// assignment (an index into the level's seqs) that led to it.
type config struct{ state, seq int32 }

// varStep extends the previous level's assignment parent by one edge given
// to variable v ("" for none); a level's assignments are the leaves of a
// trie read back through the levels.
type varStep struct {
	parent int32
	v      string
}

// extension is one way to extend a configuration by one graph edge.
type extension struct {
	edge   int
	state  int32 // automaton state reached
	parent int32 // the extended configuration's assignment
	v      string
}

func (w *shortestWalk) done() bool { return w.limit > 0 && len(w.out) >= w.limit }

// walk visits node as position d of the current path. Each configuration
// carried there is one expanded state on the meter: an expression that
// binds one path exponentially many ways is stopped by the states budget
// like any other blow-up.
func (w *shortestWalk) walk(node, d int) error {
	lv := &w.levels[d]
	for range lv.cfgs {
		if err := w.tick.Step(); err != nil {
			return err
		}
	}
	if d == w.meet.Len {
		return w.emit()
	}
	g, nq := w.p.g, w.p.a.NumStates
	depths := w.meet.Depths()
	lv.cands = lv.cands[:0]
	for _, ei := range g.Out(node) {
		lab, tgt := g.EdgeLabelID(ei), g.EdgeTgt(ei)
		for _, c := range lv.cfgs {
			for _, st := range w.p.steps[c.state] {
				if !st.ok[lab] {
					continue
				}
				if i := w.meet.Index(tgt*nq + st.to); i >= 0 && int(depths[i]) == d+1 {
					lv.cands = append(lv.cands, extension{ei, int32(st.to), c.seq, st.v})
				}
			}
		}
	}
	cands := lv.cands
	if len(cands) > 1 {
		sortExtensions(cands)
	}
	// One group of extensions per edge; within it equal assignments, then
	// equal configurations, are adjacent and collapse.
	next := &w.levels[d+1]
	for i := 0; i < len(cands); {
		next.cfgs, next.seqs = next.cfgs[:0], next.seqs[:0]
		j := i
		for ; j < len(cands) && cands[j].edge == cands[i].edge; j++ {
			c := &cands[j]
			fresh := j == i || c.parent != cands[j-1].parent || c.v != cands[j-1].v
			if fresh {
				next.seqs = append(next.seqs, varStep{c.parent, c.v})
			}
			if fresh || c.state != cands[j-1].state {
				next.cfgs = append(next.cfgs, config{c.state, int32(len(next.seqs) - 1)})
			}
		}
		w.edges = append(w.edges, cands[i].edge)
		err := w.walk(g.EdgeTgt(cands[i].edge), d+1)
		w.edges = w.edges[:len(w.edges)-1]
		if err != nil || w.done() {
			return err
		}
		i = j
	}
	return nil
}

// emit appends the current path with each of its bindings. Every
// configuration at the last position is accepting — the DAG ends in
// accepting states only — so the bindings are the level's assignments;
// two assignments can still make the same binding when the path repeats an
// edge, hence the comparison by key.
func (w *shortestWalk) emit() error {
	g := w.p.g
	path := gpath.FromEdges(g, w.meet.Src, w.edges)
	last := len(w.levels) - 1
	vars := make([]string, last)
	mus := make([]gpath.Binding, 0, len(w.levels[last].seqs))
	for s := range w.levels[last].seqs {
		for d, at := last, int32(s); d > 0; d-- {
			vars[d-1] = w.levels[d].seqs[at].v
			at = w.levels[d].seqs[at].parent
		}
		mus = append(mus, buildBinding(g, w.edges, vars))
	}
	if len(mus) > 1 {
		keys := make(map[string]gpath.Binding, len(mus))
		for _, mu := range mus {
			keys[mu.Key()] = mu
		}
		order := make([]string, 0, len(keys))
		for k := range keys {
			order = append(order, k)
		}
		sort.Strings(order)
		mus = mus[:0]
		for _, k := range order {
			mus = append(mus, keys[k])
		}
	}
	for _, mu := range mus {
		w.out = append(w.out, gpath.PathBinding{Path: path, Binding: mu})
		if err := w.m.AddRows(1); err != nil {
			return err
		}
		if w.done() {
			break
		}
	}
	return nil
}

// sortExtensions puts one node's extensions in walk order: by edge, in the
// order of the path keys; within an edge by assignment, then by state, so
// that duplicates are adjacent.
func sortExtensions(cands []extension) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.edge != b.edge {
			return decimalLess(a.edge, b.edge)
		}
		if a.parent != b.parent {
			return a.parent < b.parent
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.state < b.state
	})
}

// decimalLess orders two edge indexes the way their path-key forms "E<a>."
// and "E<b>." compare as strings: digit by digit from the most significant,
// a proper prefix first ('.' sorts before every digit). a ≠ b.
func decimalLess(a, b int) bool {
	pa, pb := 1, 1 // the powers of ten with as many digits as a and b
	for a/pa >= 10 {
		pa *= 10
	}
	for b/pb >= 10 {
		pb *= 10
	}
	for pa > 0 && pb > 0 {
		if da, db := a/pa%10, b/pb%10; da != db {
			return da < db
		}
		pa /= 10
		pb /= 10
	}
	return pa == 0 && pb > 0
}
