package dlrpq

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// ErrUnbounded is returned when mode-all enumeration has no MaxLen/Limit.
var ErrUnbounded = errors.New("dlrpq: unbounded enumeration under mode all requires MaxLen or Limit")

// Options bound result enumeration. MaxLen bounds len(p) (edge count).
type Options struct {
	MaxLen int
	Limit  int
	// Meter, when non-nil, enforces cooperative cancellation and per-query
	// resource budgets across the configuration search; with a nil meter
	// evaluation never returns pg.ErrCanceled/pg.ErrBudgetExceeded.
	Meter *pg.Meter
	// Counters, when non-nil, receives runtime statistics (configurations
	// expanded) from the search loops.
	Counters *pg.Counters
}

// assignment is a value assignment ν: DataVar → Values (partial).
type assignment map[string]graph.Value

// appendKey appends ν's key to b: each variable in name order as
// "name=kind:value;", the kind as its number.
func (v assignment) appendKey(b []byte) []byte {
	var arr [8]string // the names of a small ν stay off the heap
	names := arr[:0]
	for k := range v {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = strconv.AppendUint(append(append(b, k...), '='), uint64(v[k].Kind()), 10)
		b = append(v[k].Append(append(b, ':')), ';')
	}
	return b
}

func (v assignment) with(x string, val graph.Value) assignment {
	out := make(assignment, len(v)+1)
	for k, w := range v {
		out[k] = w
	}
	out[x] = val
	return out
}

// matchAtom checks whether atom can be applied to object o under ν,
// returning the updated assignment. The object's kind must already agree
// with the atom (callers guarantee this).
func matchAtom(g *graph.Graph, a Atom, o graph.Object, nu assignment) (assignment, bool) {
	if a.Test == nil {
		lab := g.Label(o)
		if a.Wild {
			for _, ex := range a.Except {
				if lab == ex {
					return nil, false
				}
			}
			return nu, true
		}
		if lab != a.Name {
			return nil, false
		}
		return nu, true
	}
	t := a.Test
	val, defined := g.Prop(o, t.Prop)
	if t.Assign {
		if !defined {
			return nil, false // assignment from an undefined property fails
		}
		return nu.with(t.AssignVar, val), true
	}
	if !defined {
		return nil, false
	}
	var rhs graph.Value
	if t.UseConst {
		rhs = t.Const
	} else {
		stored, ok := nu[t.CmpVar]
		if !ok {
			return nil, false // comparing against an unset data variable
		}
		rhs = stored
	}
	if !t.Op.Apply(val, rhs) {
		return nil, false
	}
	return nu, true
}

// config is an evaluation configuration: the current (last) object of the
// path being built — or none at the start — the automaton state, and ν.
type config struct {
	hasObj bool
	obj    graph.Object
	state  int
	nu     assignment
}

// appendKey appends the configuration's key to b: its object ("E" or "N"
// and the index, "-" for none), "#", the state, "#" and ν's key.
func (c config) appendKey(b []byte) []byte {
	switch {
	case !c.hasObj:
		b = append(b, '-')
	case c.obj.IsEdge():
		b = strconv.AppendInt(append(b, 'E'), int64(c.obj.Index()), 10)
	default:
		b = strconv.AppendInt(append(b, 'N'), int64(c.obj.Index()), 10)
	}
	b = strconv.AppendInt(append(b, '#'), int64(c.state), 10)
	return c.nu.appendKey(append(b, '#'))
}

// move is one application of an atom: the successor configuration, the
// object appended to the path (if any), the binding append (if any), and
// whether a new edge was consumed (cost 1).
type move struct {
	next     config
	appended bool
	appObj   graph.Object
	bindVar  string // non-empty when appObj (or collapsed object) joins a list
	bindObj  graph.Object
	cost     int
}

// edgeGuard maps an edge atom's label constraint onto a runtime guard: a
// named label is the positive singleton, a wildcard is co-finite over its
// exception list, and a test atom constrains no label at all (the data
// test runs in matchAtom).
func edgeGuard(a Atom) automata.Guard {
	if a.Test != nil {
		return automata.GuardAny()
	}
	if a.Wild {
		ex := append([]string(nil), a.Except...)
		sort.Strings(ex)
		return automata.Guard{Negated: true, Labels: ex}
	}
	return automata.GuardLabel(a.Name)
}

// anfaMachine pairs a compiled ANFA with its edge-atom guards resolved
// against one graph through the shared runtime — the dl-RPQ instantiation
// of pg's guard resolution. A positive guard carries the graph's label ID
// so candidate edges come from the per-label index; wildcard and test
// atoms become co-finite guards filtering whole rows. ok is false when a
// named label does not occur in the graph at all: that transition can
// never consume an edge there.
type anfaMachine struct {
	a      *ANFA
	guards [][]resolvedAtom // aligned with a.Trans; node atoms stay zero
}

type resolvedAtom struct {
	rg pg.ResolvedGuard
	ok bool
}

func newANFAMachine(g *graph.Graph, a *ANFA) *anfaMachine {
	m := &anfaMachine{a: a, guards: make([][]resolvedAtom, len(a.Trans))}
	for q, ts := range a.Trans {
		m.guards[q] = make([]resolvedAtom, len(ts))
		for i, tr := range ts {
			if tr.Atom.Edge {
				rg, ok := pg.Resolve(g, edgeGuard(tr.Atom))
				m.guards[q][i] = resolvedAtom{rg: rg, ok: ok}
			}
		}
	}
	return m
}

// successors enumerates the legal atom applications from cfg. anchor is the
// required src(p) for paths still empty (-1 for unanchored evaluation).
func successors(g *graph.Graph, mach *anfaMachine, cfg config, anchor int) []move {
	a := mach.a
	var out []move
	for ti, tr := range a.Trans[cfg.state] {
		atom := tr.Atom
		if !atom.Edge {
			// Node atom: candidate objects per the concatenation rules.
			var candidates []int
			var appended bool
			switch {
			case !cfg.hasObj:
				appended = true
				if anchor >= 0 {
					candidates = []int{anchor}
				} else {
					for n := 0; n < g.NumNodes(); n++ {
						if g.NodeAlive(n) { // skip tombstones under a mutation overlay
							candidates = append(candidates, n)
						}
					}
				}
			case cfg.obj.IsNode():
				appended = false // collapse onto the same node
				candidates = []int{cfg.obj.Index()}
			default: // last object is an edge: the node must be its target
				appended = true
				candidates = []int{g.EdgeTgt(cfg.obj.Index())}
			}
			for _, n := range candidates {
				o := graph.MakeNodeObject(n)
				nu, ok := matchAtom(g, atom, o, cfg.nu)
				if !ok {
					continue
				}
				m := move{
					next:     config{hasObj: true, obj: o, state: tr.To, nu: nu},
					appended: appended,
					appObj:   o,
				}
				if atom.Test == nil && atom.Var != "" {
					m.bindVar, m.bindObj = atom.Var, o
				}
				out = append(out, m)
			}
		} else {
			// Edge atom: candidate edges come from the transition's resolved
			// guard (matchAtom still applies the atom's full check to every
			// candidate, so this only prunes edges the atom would reject
			// anyway).
			ra := mach.guards[cfg.state][ti]
			var candidates []int
			collect := func(ei int) { candidates = append(candidates, ei) }
			var appended bool
			var cost int
			switch {
			case !cfg.hasObj:
				appended, cost = true, 1
				if ra.ok {
					if anchor >= 0 {
						ra.rg.OutEdges(g, anchor, collect)
					} else {
						ra.rg.Edges(g, collect)
					}
				}
			case cfg.obj.IsEdge():
				appended, cost = false, 0 // collapse onto the same edge
				candidates = []int{cfg.obj.Index()}
			default: // last object is a node: outgoing edges
				appended, cost = true, 1
				if ra.ok {
					ra.rg.OutEdges(g, cfg.obj.Index(), collect)
				}
			}
			for _, e := range candidates {
				o := graph.MakeEdgeObject(e)
				nu, ok := matchAtom(g, atom, o, cfg.nu)
				if !ok {
					continue
				}
				m := move{
					next:     config{hasObj: true, obj: o, state: tr.To, nu: nu},
					appended: appended,
					appObj:   o,
					cost:     cost,
				}
				if atom.Test == nil && atom.Var != "" {
					m.bindVar, m.bindObj = atom.Var, o
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// endpointOK reports whether tgt(p) = dst for the path ending in cfg.obj.
func endpointOK(g *graph.Graph, cfg config, dst int) bool {
	if !cfg.hasObj {
		return false // the empty path has no endpoints
	}
	if cfg.obj.IsNode() {
		return cfg.obj.Index() == dst
	}
	return g.EdgeTgt(cfg.obj.Index()) == dst
}

// Plan is a dl-RPQ compiled against one graph: its atom automaton (the
// register automaton's finite skeleton) and the automaton's edge-atom
// guards resolved against the graph's labels. A Plan is immutable and serves
// concurrent queries; a serving layer caches one per (graph revision, query
// text), and EvalBetween builds one per call.
type Plan struct {
	g    *graph.Graph
	mach *anfaMachine
}

// NewPlan compiles e against g.
func NewPlan(g *graph.Graph, e Expr) *Plan {
	return &Plan{g: g, mach: newANFAMachine(g, Compile(e))}
}

// Between computes m(σ_{u,v}(⟦R⟧_G)) on the plan: the (p, µ) results whose
// path runs from src to dst, under a path mode, with the mode applied after
// endpoint selection (Section 3.1.5 via Section 3.2.2).
//
// Idle derivation loops — zero-cost cycles through a repeated configuration
// that only pump list variables (e.g. ((a^z))* re-collapsing on one node) —
// are cut: each configuration is visited at most once between consecutive
// edge consumptions. This keeps result sets finite without affecting which
// paths are found.
func (p *Plan) Between(src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	var flags searchFlags
	switch mode {
	case eval.All:
		if opts.MaxLen <= 0 && opts.Limit <= 0 {
			return nil, ErrUnbounded
		}
		if opts.MaxLen > 0 {
			return p.search(src, dst, opts, 0)
		}
	case eval.Shortest:
		best, reachable, err := p.shortestDistance(src, dst, opts.Meter, opts.Counters)
		if err != nil {
			return nil, err
		}
		if !reachable {
			return nil, nil
		}
		opts.MaxLen = best
		return p.search(src, dst, opts, flagExact)
	case eval.Simple:
		flags = modeSimple
	case eval.Trail:
		flags = modeTrail
	default:
		return nil, fmt.Errorf("dlrpq: unknown mode %v", mode)
	}
	if opts.Limit <= 0 {
		return p.search(src, dst, opts, flags)
	}
	return p.deepen(src, dst, opts, flags)
}

// EvalBetween is Plan.Between in one shot: it compiles e against g for the
// call. Callers that repeat an expression over one graph keep the Plan.
func EvalBetween(g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	return NewPlan(g, e).Between(src, dst, mode, opts)
}

// Eval enumerates ⟦R⟧_G unanchored (all endpoints), requiring MaxLen.
func Eval(g *graph.Graph, e Expr, opts Options) ([]gpath.PathBinding, error) {
	if opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	return NewPlan(g, e).search(-1, -1, opts, 0)
}

type searchFlags int

const (
	modeSimple searchFlags = 1 << iota
	modeTrail
	flagExact
)

func (p *Plan) search(src, dst int, opts Options, flags searchFlags) ([]gpath.PathBinding, error) {
	out, _, err := p.searchAnchor(src, dst, opts, flags)
	if err != nil {
		return nil, err
	}
	return gpath.Head(out, opts.Limit), nil
}

// searchAnchor is the core DFS over configurations. src = -1 means any
// start; dst = -1 means any end. truncated reports whether some branch was
// cut by the MaxLen bound (i.e. deeper results may exist). Budget checks
// run through the runtime's Ticker — one step per configuration expansion
// — and the meter is charged one row per emitted result.
func (p *Plan) searchAnchor(src, dst int, opts Options, flags searchFlags) ([]gpath.PathBinding, bool, error) {
	g, mach, a := p.g, p.mach, p.mach.a
	m := opts.Meter
	tick := pg.NewTicker(m, opts.Counters)
	seen := map[string]struct{}{}
	var out []gpath.PathBinding

	var objs []graph.Object // current path object sequence
	var binds []struct {
		v string
		o graph.Object
	}
	usedNodes := map[int]struct{}{}
	usedEdges := map[int]struct{}{}
	truncated := false
	var stopErr error
	var key []byte // a configuration's key, built in place

	emit := func() {
		p, err := gpath.New(g, objs...)
		if err != nil {
			panic("dlrpq: built invalid path: " + err.Error())
		}
		var mu gpath.Binding
		for _, b := range binds {
			if mu == nil {
				mu = gpath.Binding{}
			}
			mu[b.v] = append(mu[b.v], b.o)
		}
		pb := gpath.PathBinding{Path: p, Binding: mu}
		k := pb.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, pb)
			stopErr = m.AddRows(1)
		}
	}

	var dfs func(cfg config, edgesUsed int, sinceEdge map[string]struct{})
	dfs = func(cfg config, edgesUsed int, sinceEdge map[string]struct{}) {
		if stopErr != nil {
			return
		}
		if err := tick.Step(); err != nil {
			stopErr = err
			return
		}
		if a.Accept[cfg.state] && cfg.hasObj {
			if dst == -1 || endpointOK(g, cfg, dst) {
				if flags&flagExact == 0 || edgesUsed == opts.MaxLen {
					emit()
				}
			}
		}
		for _, m := range successors(g, mach, cfg, src) {
			if m.cost > 0 {
				if flags&modeTrail != 0 {
					if _, used := usedEdges[m.appObj.Index()]; used {
						continue
					}
				}
				// flagExact bounds by MaxLen even at 0: the empty path.
				if (opts.MaxLen > 0 || flags&flagExact != 0) && edgesUsed+1 > opts.MaxLen {
					truncated = true
					continue
				}
			}
			if m.appended && m.appObj.IsNode() && flags&modeSimple != 0 {
				if _, used := usedNodes[m.appObj.Index()]; used {
					continue
				}
			}
			nextSince := sinceEdge
			if m.cost > 0 {
				nextSince = map[string]struct{}{}
			} else {
				key = m.next.appendKey(key[:0])
				if _, loop := sinceEdge[string(key)]; loop {
					continue // idle derivation loop
				}
				nextSince = cloneSet(sinceEdge)
				nextSince[string(key)] = struct{}{}
			}

			if m.appended {
				objs = append(objs, m.appObj)
				if m.appObj.IsNode() {
					usedNodes[m.appObj.Index()] = struct{}{}
				} else {
					usedEdges[m.appObj.Index()] = struct{}{}
				}
			}
			hadBind := false
			if m.bindVar != "" {
				binds = append(binds, struct {
					v string
					o graph.Object
				}{m.bindVar, m.bindObj})
				hadBind = true
			}

			dfs(m.next, edgesUsed+m.cost, nextSince)

			if hadBind {
				binds = binds[:len(binds)-1]
			}
			if m.appended {
				objs = objs[:len(objs)-1]
				if m.appObj.IsNode() {
					delete(usedNodes, m.appObj.Index())
				} else {
					delete(usedEdges, m.appObj.Index())
				}
			}
		}
	}

	start := config{state: a.Start}
	dfs(start, 0, map[string]struct{}{string(start.appendKey(nil)): {}})
	if stopErr == nil {
		stopErr = tick.Flush()
	}
	if stopErr != nil {
		return nil, false, stopErr
	}
	return out, truncated, nil
}

func cloneSet(s map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{}, len(s)+1)
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// shortestDistance runs a 0–1 BFS over configurations to find the minimal
// len(p) of any result from src to dst. reachable is false when there is
// none. This is the register-automaton product search of Section 6.4: the
// configuration space is finite because ν ranges over the active domain.
func (p *Plan) shortestDistance(src, dst int, m *pg.Meter, cnt *pg.Counters) (int, bool, error) {
	g, mach, a := p.g, p.mach, p.mach.a
	type qitem struct {
		cfg  config
		dist int
	}
	tick := pg.NewTicker(m, cnt)
	dist := map[string]int{}
	var key []byte // a configuration's key, built in place
	start := config{state: a.Start}
	dist[string(start.appendKey(nil))] = 0
	deque := []qitem{{start, 0}}
	best := -1
	for len(deque) > 0 {
		if err := tick.Step(); err != nil {
			return 0, false, err
		}
		it := deque[0]
		deque = deque[1:]
		key = it.cfg.appendKey(key[:0])
		if d, ok := dist[string(key)]; ok && d < it.dist {
			continue // stale entry
		}
		if a.Accept[it.cfg.state] && endpointOK(g, it.cfg, dst) {
			if best == -1 || it.dist < best {
				best = it.dist
			}
		}
		if best != -1 && it.dist >= best {
			continue
		}
		for _, m := range successors(g, mach, it.cfg, src) {
			nd := it.dist + m.cost
			key = m.next.appendKey(key[:0])
			if d, ok := dist[string(key)]; !ok || nd < d {
				dist[string(key)] = nd
				if m.cost == 0 {
					deque = append([]qitem{{m.next, nd}}, deque...)
				} else {
					deque = append(deque, qitem{m.next, nd})
				}
			}
		}
	}
	if err := tick.Flush(); err != nil {
		return 0, false, err
	}
	if best == -1 {
		return 0, false, nil
	}
	return best, true, nil
}

// deepen answers a query with a limit in mode simple, in mode trail, or in
// mode all bounded by the limit alone (gpath.Deepen). Each pass is charged
// its configurations and rows on the meter again: the repeated work is real
// work. The search's configurations carry register values, so no state
// count bounds a run that cannot be shortened: Deepen gets none.
func (p *Plan) deepen(src, dst int, opts Options, flags searchFlags) ([]gpath.PathBinding, error) {
	return gpath.Deepen(opts.Limit, opts.MaxLen, 0, func(bound int) ([]gpath.PathBinding, bool, error) {
		pass := opts
		pass.MaxLen = bound
		return p.searchAnchor(src, dst, pass, flags)
	})
}
