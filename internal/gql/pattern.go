// Package gql models the practice-side pattern semantics of GQL that the
// paper scrutinizes: group variables whose role flips under iteration
// (Examples 1 and 2), partial bindings under disjunction (Section 4.2),
// path variables with EXCEPT over path sets, Cypher-style list functions
// with reduce, and the proposed ⟨∀π′ ⇒ θ⟩ conditions on matched paths
// (Section 5.2). It is deliberately faithful to the behaviors the paper
// criticizes, serving as the experimental counterpart to the
// automata-compatible designs in packages lrpq and dlrpq.
package gql

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/coregql"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// Pattern is a GQL-style pattern.
type Pattern interface {
	fmt.Stringer
	isPattern()
}

// NodeP is (x:L); Var and Label are both optional.
type NodeP struct {
	Var   string
	Label string
}

// EdgeP is -[x:L]->; Var and Label are both optional.
type EdgeP struct {
	Var   string
	Label string
}

// ConcatP is π₁ π₂.
type ConcatP struct{ Left, Right Pattern }

// UnionP is π₁ + π₂. Unlike CoreGQL, branches may bind different variables
// (GQL's partial bindings / nulls, Section 4.2).
type UnionP struct{ Left, Right Pattern }

// RepeatP is π{Min,Max} (Max < 0 = ∞). Iteration turns every variable of
// the subpattern into a group variable that collects a list.
type RepeatP struct {
	Sub Pattern
	Min int
	Max int
}

// CondP is π WHERE θ; conditions reuse the CoreGQL condition language and
// apply to singleton bindings of the subpattern.
type CondP struct {
	Sub  Pattern
	Cond coregql.Condition
}

func (NodeP) isPattern()   {}
func (EdgeP) isPattern()   {}
func (ConcatP) isPattern() {}
func (UnionP) isPattern()  {}
func (RepeatP) isPattern() {}
func (CondP) isPattern()   {}

func (p NodeP) String() string {
	s := p.Var
	if p.Label != "" {
		s += ":" + p.Label
	}
	return "(" + s + ")"
}

func (p EdgeP) String() string {
	s := p.Var
	if p.Label != "" {
		s += ":" + p.Label
	}
	if s == "" {
		return "-->"
	}
	return "-[" + s + "]->"
}

func (p ConcatP) String() string { return p.Left.String() + p.Right.String() }
func (p UnionP) String() string  { return "(" + p.Left.String() + " + " + p.Right.String() + ")" }
func (p RepeatP) String() string {
	switch {
	case p.Min == 0 && p.Max < 0:
		return "(" + p.Sub.String() + ")*"
	case p.Max < 0:
		return fmt.Sprintf("(%s){%d,}", p.Sub, p.Min)
	case p.Min == p.Max:
		return fmt.Sprintf("(%s){%d}", p.Sub, p.Min)
	default:
		return fmt.Sprintf("(%s){%d,%d}", p.Sub, p.Min, p.Max)
	}
}
func (p CondP) String() string { return "(" + p.Sub.String() + " WHERE " + p.Cond.String() + ")" }

// Node returns (x).
func Node(x string) Pattern { return NodeP{Var: x} }

// NodeL returns (x:L).
func NodeL(x, label string) Pattern { return NodeP{Var: x, Label: label} }

// AnonNode returns ().
func AnonNode() Pattern { return NodeP{} }

// Edge returns -[x]->.
func Edge(x string) Pattern { return EdgeP{Var: x} }

// EdgeL returns -[x:L]->.
func EdgeL(x, label string) Pattern { return EdgeP{Var: x, Label: label} }

// AnonEdgeL returns -[:L]->.
func AnonEdgeL(label string) Pattern { return EdgeP{Label: label} }

// AnonEdge returns -->.
func AnonEdge() Pattern { return EdgeP{} }

// Concat chains patterns.
func Concat(ps ...Pattern) Pattern {
	if len(ps) == 0 {
		panic("gql: Concat needs at least one pattern")
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = ConcatP{Left: out, Right: p}
	}
	return out
}

// Union returns π₁ + π₂.
func Union(a, b Pattern) Pattern { return UnionP{Left: a, Right: b} }

// Repeat returns π{min,max}; max < 0 means unbounded.
func Repeat(p Pattern, min, max int) Pattern { return RepeatP{Sub: p, Min: min, Max: max} }

// Star returns π{0,∞}.
func Star(p Pattern) Pattern { return RepeatP{Sub: p, Min: 0, Max: -1} }

// Where returns π WHERE θ.
func Where(p Pattern, c coregql.Condition) Pattern { return CondP{Sub: p, Cond: c} }

// BindVal is the value of a variable in a match: a single element or — for
// group variables — a list of elements.
type BindVal struct {
	IsList bool
	One    graph.Object
	List   []graph.Object
}

func (v BindVal) key() string {
	objKey := func(o graph.Object) string {
		if o.IsEdge() {
			return fmt.Sprintf("E%d", o.Index())
		}
		return fmt.Sprintf("N%d", o.Index())
	}
	if !v.IsList {
		return objKey(v.One)
	}
	var b strings.Builder
	b.WriteByte('[')
	for _, o := range v.List {
		b.WriteString(objKey(o))
		b.WriteByte(',')
	}
	b.WriteByte(']')
	return b.String()
}

// Format renders the value with external IDs.
func (v BindVal) Format(g *graph.Graph) string {
	if !v.IsList {
		return g.ObjectID(v.One)
	}
	parts := make([]string, len(v.List))
	for i, o := range v.List {
		parts[i] = g.ObjectID(o)
	}
	return "list(" + strings.Join(parts, ", ") + ")"
}

// Match is one result of pattern matching: a node-to-node path and a
// binding. Variables absent from the map are "null" (GQL partial bindings).
type Match struct {
	Path gpath.Path
	B    map[string]BindVal
}

func (m Match) key() string {
	vars := make([]string, 0, len(m.B))
	for v := range m.B {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	b.WriteString(m.Path.Key())
	b.WriteByte('|')
	for _, v := range vars {
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(m.B[v].key())
		b.WriteByte(';')
	}
	return b.String()
}

// ErrUnbounded mirrors the other evaluators.
var ErrUnbounded = errors.New("gql: unbounded repetition requires Options.MaxLen")

// ErrMixedBinding reports a variable used as both singleton and group in a
// joinable position — ill-formed in GQL's type discipline.
var ErrMixedBinding = errors.New("gql: variable bound as both element and list")

// Options bound evaluation.
type Options struct {
	MaxLen int

	// Meter stops and charges evaluation: every candidate the evaluator
	// considers is charged to its states budget (amortized every
	// pg.CheckInterval), each final match to its rows budget. Nil means
	// unmetered.
	Meter *pg.Meter

	// tick is EvalPattern's ticker on Meter, which every candidate steps.
	tick *pg.Ticker
}

// EvalPattern computes the match set of π on g under GQL group-variable
// semantics (set semantics; GQL's bag/dedup subtleties are modeled in
// DedupBy below).
func EvalPattern(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	if hasUnbounded(p) && opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	tick := pg.NewTicker(opts.Meter, nil)
	opts.tick = &tick
	ms, err := evalRec(g, p, opts)
	if err != nil {
		return nil, err
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	if err := opts.Meter.AddRows(int64(len(ms))); err != nil {
		return nil, err
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Path.Len() != ms[j].Path.Len() {
			return ms[i].Path.Len() < ms[j].Path.Len()
		}
		return ms[i].key() < ms[j].key()
	})
	return ms, nil
}

func hasUnbounded(p Pattern) bool {
	switch n := p.(type) {
	case ConcatP:
		return hasUnbounded(n.Left) || hasUnbounded(n.Right)
	case UnionP:
		return hasUnbounded(n.Left) || hasUnbounded(n.Right)
	case RepeatP:
		return n.Max < 0 || hasUnbounded(n.Sub)
	case CondP:
		return hasUnbounded(n.Sub)
	default:
		return false
	}
}

func dedup(ms []Match) []Match {
	seen := map[string]struct{}{}
	out := ms[:0]
	for _, m := range ms {
		k := m.key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, m)
	}
	return out
}

func evalRec(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	switch n := p.(type) {
	case NodeP:
		var out []Match
		for i := 0; i < g.NumNodes(); i++ {
			if err := opts.tick.Step(); err != nil {
				return nil, err
			}
			if !g.NodeAlive(i) {
				continue
			}
			if n.Label != "" && g.Node(i).Label != n.Label {
				continue
			}
			b := map[string]BindVal{}
			if n.Var != "" {
				b[n.Var] = BindVal{One: graph.MakeNodeObject(i)}
			}
			out = append(out, Match{Path: gpath.OfNode(i), B: b})
		}
		return out, nil
	case EdgeP:
		var out []Match
		for e := 0; e < g.NumEdges(); e++ {
			if err := opts.tick.Step(); err != nil {
				return nil, err
			}
			if !g.EdgeAlive(e) {
				continue
			}
			if n.Label != "" && g.Edge(e).Label != n.Label {
				continue
			}
			b := map[string]BindVal{}
			if n.Var != "" {
				b[n.Var] = BindVal{One: graph.MakeEdgeObject(e)}
			}
			out = append(out, Match{Path: gpath.Triple(g, e), B: b})
		}
		return out, nil
	case ConcatP:
		left, err := evalRec(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := evalRec(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return concatMatches(g, left, right, opts)
	case UnionP:
		left, err := evalRec(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := evalRec(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return dedup(append(left, right...)), nil
	case RepeatP:
		return evalRepeat(g, n, opts)
	case CondP:
		ms, err := evalRec(g, n.Sub, opts)
		if err != nil {
			return nil, err
		}
		var out []Match
		for _, m := range ms {
			if err := opts.tick.Step(); err != nil {
				return nil, err
			}
			if holdsOnSingletons(g, n.Cond, m.B) {
				out = append(out, m)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("gql: unknown pattern %T", p)
	}
}

// holdsOnSingletons adapts a GQL binding (which may contain lists) to the
// CoreGQL condition evaluator; conditions touching list-bound or unbound
// variables are false.
func holdsOnSingletons(g *graph.Graph, c coregql.Condition, b map[string]BindVal) bool {
	flat := make(map[string]graph.Object, len(b))
	for v, val := range b {
		if !val.IsList {
			flat[v] = val.One
		}
	}
	return c.Holds(g, flat)
}

// concatMatches joins matches: node-to-node path composition plus binding
// merge — singleton∩singleton joins on equality (this is GQL's repeated-
// variable join), list∩list concatenates, mixed is an error.
func concatMatches(g *graph.Graph, left, right []Match, opts Options) ([]Match, error) {
	bySrc := map[int][]Match{}
	for _, m := range right {
		if s, ok := m.Path.Src(g); ok {
			bySrc[s] = append(bySrc[s], m)
		}
	}
	var out []Match
	for _, lm := range left {
		t, ok := lm.Path.Tgt(g)
		if !ok {
			continue
		}
		for _, rm := range bySrc[t] {
			if err := opts.tick.Step(); err != nil {
				return nil, err
			}
			if opts.MaxLen > 0 && lm.Path.Len()+rm.Path.Len() > opts.MaxLen {
				continue
			}
			merged, ok, err := mergeBindings(lm.B, rm.B)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			joined, ok := gpath.Concat(g, lm.Path, rm.Path)
			if !ok {
				continue
			}
			out = append(out, Match{Path: joined, B: merged})
		}
	}
	return dedup(out), nil
}

func mergeBindings(a, b map[string]BindVal) (map[string]BindVal, bool, error) {
	out := make(map[string]BindVal, len(a)+len(b))
	for v, val := range a {
		out[v] = val
	}
	for v, val := range b {
		prev, shared := out[v]
		if !shared {
			out[v] = val
			continue
		}
		switch {
		case !prev.IsList && !val.IsList:
			if prev.One != val.One {
				return nil, false, nil // join fails
			}
		case prev.IsList && val.IsList:
			merged := make([]graph.Object, 0, len(prev.List)+len(val.List))
			merged = append(merged, prev.List...)
			merged = append(merged, val.List...)
			out[v] = BindVal{IsList: true, List: merged}
		default:
			return nil, false, fmt.Errorf("%w: %q", ErrMixedBinding, v)
		}
	}
	return out, true, nil
}

// evalRepeat implements GQL iteration: the subpattern's variables become
// group variables; iteration i contributes its singleton values (and
// flattens its lists) onto the per-variable list.
func evalRepeat(g *graph.Graph, n RepeatP, opts Options) ([]Match, error) {
	base, err := evalRec(g, n.Sub, opts)
	if err != nil {
		return nil, err
	}
	// Promote the base matches: every bound variable contributes a
	// one-iteration list.
	unit := make([]Match, len(base))
	for i, m := range base {
		b := make(map[string]BindVal, len(m.B))
		for v, val := range m.B {
			if val.IsList {
				b[v] = val
			} else {
				b[v] = BindVal{IsList: true, List: []graph.Object{val.One}}
			}
		}
		unit[i] = Match{Path: m.Path, B: b}
	}
	unit = dedup(unit)

	level := make([]Match, 0, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if err := opts.tick.Step(); err != nil {
			return nil, err
		}
		if !g.NodeAlive(i) {
			continue
		}
		level = append(level, Match{Path: gpath.OfNode(i), B: map[string]BindVal{}})
	}
	var out []Match
	if n.Min == 0 {
		out = append(out, level...)
	}
	seen := map[string]struct{}{}
	for _, m := range level {
		seen[m.key()] = struct{}{}
	}
	for j := 1; n.Max < 0 || j <= n.Max; j++ {
		level, err = concatMatches(g, level, unit, opts)
		if err != nil {
			return nil, err
		}
		if j >= n.Min {
			out = append(out, level...)
		}
		anyFresh := false
		for _, m := range level {
			k := m.key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				anyFresh = true
			}
		}
		if n.Max < 0 && !anyFresh {
			break
		}
		if len(level) == 0 {
			break
		}
	}
	return dedup(out), nil
}
