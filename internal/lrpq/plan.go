package lrpq

import (
	"fmt"
	"slices"
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

// Between computes m(σ_{src,dst}(⟦R⟧_G)) on the plan; see EvalBetween. A
// dst < 0 in modes other than shortest lets a path end anywhere (Eval).
// Every mode is one walk over graph paths; mode shortest keeps it on the
// shortest-path DAG of a Search. A limit in mode simple, in mode trail, or
// in mode all bounded by the limit alone deepens the walk's length bound
// (gpath.Deepen). Each pass is charged its states and rows on the meter
// again: the repeated work is real work. A run through more product states
// than the kernel has repeats one, which ends a deepening whose answer is
// shorter than the limit.
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
	pass := func(bound int) ([]gpath.PathBinding, bool, error) {
		if bound <= 0 {
			bound = -1
		}
		w := &walk{p: p, src: src, dst: dst, mode: mode, maxLen: bound, m: opts.Meter}
		return w.run()
	}
	if opts.Limit > 0 && (mode != eval.All || opts.MaxLen <= 0) {
		return gpath.Deepen(opts.Limit, opts.MaxLen, p.kern.NumProductStates(), pass)
	}
	// Nothing to cut, or mode all's own bound: one walk holds the head.
	out, _, err := pass(opts.MaxLen)
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
// all of them). The walk stays on the shortest-path DAG, so every step
// extends to an answer and the work follows the answers — their number,
// their length, the degree of the nodes on them and the configurations the
// automaton carries along them — whatever the size of the graph.
func (p *Plan) Shortest(meet *pg.Meet, limit int, m *pg.Meter) ([]gpath.PathBinding, error) {
	if meet.Len < 0 {
		return nil, nil
	}
	w := &walk{p: p, src: meet.Src, dst: meet.Dst, mode: eval.Shortest, meet: meet,
		maxLen: meet.Len, limit: limit, m: m}
	out, _, err := w.run()
	return out, err
}

// walk is one depth-first walk over the graph paths from src that some run
// of the automaton can take. It follows graph edges, not product edges: it
// carries along the set of automaton configurations the edges so far allow
// — the state, and which variable took which edge — so one path is visited
// once and all its bindings come out together. The mode decides which
// extensions it admits: in mode shortest a step to the DAG state one level
// deeper, in mode all any step, in modes simple and trail a step to a node,
// or along an edge, not yet on the path. A path is emitted where it ends at
// dst (anywhere when dst < 0) with an accepting configuration.
//
// Path keys compare as strings, "E12." before "E2." and "E1." before
// "E10.", so a walk that is to stop early has to leave each node by its
// edges in that order: decimal-string order of the edge index, not numeric
// order. Then one length's paths come out in result order, which is what
// lets mode shortest stop at its limit.
type walk struct {
	p        *Plan
	src, dst int
	mode     eval.Mode
	meet     *pg.Meet // mode shortest: the DAG every step stays on
	maxLen   int      // the longest path walked; -1: no bound but the mode's
	limit    int      // stop after this many rows; 0: never
	m        *pg.Meter
	tick     pg.Ticker
	cut      bool // the bound stopped a branch with an edge and a transition left

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

// run walks from src and returns the rows found and whether the bound cut
// a branch. Each configuration carried to a node is one expanded state on
// the meter and on the kernel's counters, and each row is charged as it is
// found: an expression that binds one path exponentially many ways is
// stopped by the states budget like any other blow-up.
func (w *walk) run() ([]gpath.PathBinding, bool, error) {
	w.tick = pg.NewTicker(w.m, w.p.kern.Counters())
	w.levels = make([]walkLevel, 1, max(w.maxLen, 0)+1)
	w.levels[0].seqs = []varStep{{parent: -1}}
	w.levels[0].cfgs = []config{{state: int32(w.p.a.Start)}}
	err := w.visit(w.src, 0)
	if err == nil {
		err = w.tick.Flush()
	}
	if err != nil {
		return nil, false, err
	}
	return w.out, w.cut, nil
}

func (w *walk) done() bool { return w.limit > 0 && len(w.out) >= w.limit }

// visit visits node as position d of the current path.
func (w *walk) visit(node, d int) error {
	lv := &w.levels[d]
	for range lv.cfgs {
		if err := w.tick.Step(); err != nil {
			return err
		}
	}
	// Mode shortest's DAG reaches dst accepting at its last level only.
	end := d == w.maxLen
	if (end || w.meet == nil) && (w.dst < 0 || node == w.dst) {
		if err := w.emit(d); err != nil || w.done() {
			return err
		}
	}
	g := w.p.g
	if end {
		// The DAG has no branch past its last level; elsewhere the bound
		// cuts one that has an edge and a transition left.
		if w.meet == nil && !w.cut && len(g.Out(node)) > 0 {
			for _, c := range lv.cfgs {
				w.cut = w.cut || len(w.p.steps[c.state]) > 0
			}
		}
		return nil
	}
	if d+1 == len(w.levels) {
		w.levels = append(w.levels, walkLevel{})
		lv = &w.levels[d]
	}
	lv.cands = lv.cands[:0]
	for _, ei := range g.Out(node) {
		lab, tgt := g.EdgeLabelID(ei), g.EdgeTgt(ei)
		if w.repeats(ei, tgt) {
			continue
		}
		for _, c := range lv.cfgs {
			for _, st := range w.p.steps[c.state] {
				if st.ok[lab] && (w.meet == nil || w.tight(tgt, st.to, d+1)) {
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
	// equal configurations, are adjacent and collapse. The level below is
	// looked up again after each visit, which may have grown the levels.
	for i := 0; i < len(cands); {
		next := &w.levels[d+1]
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
		err := w.visit(g.EdgeTgt(cands[i].edge), d+1)
		w.edges = w.edges[:len(w.edges)-1]
		if err != nil || w.done() {
			return err
		}
		i = j
	}
	return nil
}

// repeats reports whether the mode forbids extending the path along edge
// ei to node tgt: mode simple visits no node twice, mode trail no edge.
func (w *walk) repeats(ei, tgt int) bool {
	switch w.mode {
	case eval.Simple:
		if tgt == w.src {
			return true
		}
		for _, e := range w.edges {
			if w.p.g.EdgeTgt(e) == tgt {
				return true
			}
		}
	case eval.Trail:
		return slices.Contains(w.edges, ei)
	}
	return false
}

// tight reports whether a step to automaton state q at node tgt, as
// position d of the path, stays on mode shortest's DAG.
func (w *walk) tight(tgt, q, d int) bool {
	i := w.meet.Index(tgt*w.p.a.NumStates + q)
	return i >= 0 && int(w.meet.Depths()[i]) == d
}

// emit appends the current path, d edges long, with each binding of its
// accepting configurations; there is none when no configuration accepts.
// Two assignments can make the same binding when the path repeats an edge,
// hence the comparison by key. The configurations of a level are ordered by
// assignment, so equal assignments are adjacent.
func (w *walk) emit(d int) error {
	g, lv := w.p.g, &w.levels[d]
	var mus []gpath.Binding
	var vars []string
	last := int32(-1)
	for _, c := range lv.cfgs {
		if !w.p.a.Accept[c.state] || c.seq == last {
			continue
		}
		if last = c.seq; vars == nil {
			vars = make([]string, d)
		}
		for i, at := d, c.seq; i > 0; i-- {
			vars[i-1] = w.levels[i].seqs[at].v
			at = w.levels[i].seqs[at].parent
		}
		mus = append(mus, buildBinding(g, w.edges, vars))
	}
	if len(mus) == 0 {
		return nil
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
	path := gpath.FromEdges(g, w.src, w.edges)
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
