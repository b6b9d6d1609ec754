package coregql

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/relalg"
)

// ErrUnbounded reports an unbounded repetition evaluated without a MaxLen.
var ErrUnbounded = errors.New("coregql: unbounded repetition requires Options.MaxLen")

// Options bound pattern evaluation.
type Options struct {
	// MaxLen bounds the length (edge count) of produced paths. Required
	// when the pattern contains an unbounded repetition.
	MaxLen int

	// Meter stops and charges evaluation: every candidate the evaluator
	// considers is charged to its states budget (amortized every
	// pg.CheckInterval), each final match to its rows budget. Nil means
	// unmetered.
	Meter *pg.Meter
}

// Elem is what the match enumerator asks of a node or edge atom of a
// pattern language of the GQL family: whether it matches an edge (else a
// node), the label it tests ("" for any), and the variable it binds (""
// for none).
type Elem interface {
	Elem() (edge bool, label, v string)
}

// Where is what the enumerator asks of the one node the GQL family adds
// to regular expressions, π⟨θ⟩ (GQL's π WHERE θ): its subpattern and its
// condition.
type Where[L automata.Language] interface {
	Where() (automata.Expr[L], Condition)
}

// Algebra is how a pattern language of the GQL family binds variables, B
// being its binding type. Everything else of the Figure 4 semantics —
// which paths match, how they compose, when iteration stops — is the
// enumerator's, shared by every language.
type Algebra[B any] interface {
	// Bind is the binding an atom that matched element o makes: v ↦ o, or
	// the empty binding when v is "".
	Bind(v string, o graph.Object) B
	// Join is µ₁ ⋈ µ₂ for the bindings of two composed paths: ok is false
	// when they disagree; an error means the pattern is ill-formed.
	Join(a, b B) (joined B, ok bool, err error)
	// Iterate is what a repetition makes of a binding of its body.
	Iterate(b B) B
	// Holds reads the condition θ on a binding.
	Holds(g *graph.Graph, c Condition, b B) bool
	// Key identifies a binding: matches are deduplicated and ordered by
	// their path's key and their binding's.
	Key(b B) string
}

// MatchOf is one match of a pattern whose language binds variables to
// values of type B: a node-to-node path and a binding.
type MatchOf[B any] struct {
	Path    gpath.Path
	Binding B
}

// Match is one element of ⟦π⟧_G: a node-to-node path and a binding of free
// variables to graph elements.
type Match = MatchOf[map[string]graph.Object]

// EvalPattern computes ⟦π⟧_G per Figure 4, as a deduplicated set of
// matches ordered by path length then keys.
func EvalPattern(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	if opts.MaxLen <= 0 && Unbounded(p) {
		return nil, ErrUnbounded
	}
	return Enumerate(g, p, erasing{}, opts)
}

// erasing is CoreGQL's binding algebra: bindings are maps to single
// elements, joined on agreement, and repetition erases them (the µ∅ of
// Figure 4, which is FV(π^{n..m}) = ∅).
type erasing struct{}

func (erasing) Bind(v string, o graph.Object) map[string]graph.Object {
	b := map[string]graph.Object{}
	if v != "" {
		b[v] = o
	}
	return b
}

// Join reports µ₁ ~ µ₂ and returns µ₁ ⋈ µ₂.
func (erasing) Join(a, b map[string]graph.Object) (map[string]graph.Object, bool, error) {
	for v, o := range a {
		if o2, shared := b[v]; shared && o != o2 {
			return nil, false, nil
		}
	}
	out := make(map[string]graph.Object, len(a)+len(b))
	for v, o := range a {
		out[v] = o
	}
	for v, o := range b {
		out[v] = o
	}
	return out, true, nil
}

func (erasing) Iterate(map[string]graph.Object) map[string]graph.Object {
	return map[string]graph.Object{}
}

func (erasing) Holds(g *graph.Graph, c Condition, b map[string]graph.Object) bool {
	return c.Holds(g, b)
}

func (erasing) Key(b map[string]graph.Object) string { return KeyOf(b, ObjectKey) }

// KeyOf is the key of a binding whose values have keys: its variables in
// order, each with its value's key.
func KeyOf[V any](b map[string]V, key func(V) string) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v)
		sb.WriteByte('=')
		sb.WriteString(key(b[v]))
		sb.WriteByte(';')
	}
	return sb.String()
}

// ObjectKey is the key of a bound element: N or E, then its index.
func ObjectKey(o graph.Object) string {
	if o.IsEdge() {
		return "E" + strconv.Itoa(o.Index())
	}
	return "N" + strconv.Itoa(o.Index())
}

// Enumerate computes the match set of p on g under the binding algebra
// alg, deduplicated and ordered by path length then keys. The parts of a
// concatenation and the branches of a union are evaluated and joined left
// to right. Every candidate is charged to opts.Meter's states budget and
// every final match to its rows budget; opts.MaxLen bounds the length of
// composed paths, and an unbounded repetition iterates until a level adds
// no new match (callers refuse the patterns where that never happens).
func Enumerate[L automata.Language, B any](g *graph.Graph, p automata.Expr[L], alg Algebra[B], opts Options) ([]MatchOf[B], error) {
	tick := pg.NewTicker(opts.Meter, nil)
	en := &enumerator[L, B]{g: g, alg: alg, maxLen: opts.MaxLen, tick: &tick}
	ms, err := en.eval(p)
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
		return en.key(ms[i]) < en.key(ms[j])
	})
	return ms, nil
}

type enumerator[L automata.Language, B any] struct {
	g      *graph.Graph
	alg    Algebra[B]
	maxLen int
	tick   *pg.Ticker // steps once per candidate
}

func (en *enumerator[L, B]) key(m MatchOf[B]) string {
	return m.Path.Key() + "|" + en.alg.Key(m.Binding)
}

func (en *enumerator[L, B]) dedup(ms []MatchOf[B]) []MatchOf[B] {
	seen := map[string]struct{}{}
	out := ms[:0]
	for _, m := range ms {
		k := en.key(m)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, m)
	}
	return out
}

func (en *enumerator[L, B]) eval(p automata.Expr[L]) ([]MatchOf[B], error) {
	switch n := p.(type) {
	case automata.Concat[L]:
		out, err := en.eval(n.Parts[0])
		for _, part := range n.Parts[1:] {
			if err != nil {
				break
			}
			var right []MatchOf[B]
			if right, err = en.eval(part); err == nil {
				out, err = en.join(out, right)
			}
		}
		return out, err
	case automata.Alternation[L]:
		out, err := en.eval(n.Alts[0])
		for _, alt := range n.Alts[1:] {
			if err != nil {
				break
			}
			var right []MatchOf[B]
			if right, err = en.eval(alt); err == nil {
				out = en.dedup(append(out, right...))
			}
		}
		return out, err
	case automata.Star[L]:
		return en.repeat(n.Sub, 0, -1)
	case automata.Repeat[L]:
		return en.repeat(n.Sub, n.Min, n.Max)
	case Where[L]:
		sub, cond := n.Where()
		ms, err := en.eval(sub)
		if err != nil {
			return nil, err
		}
		var out []MatchOf[B]
		for _, m := range ms {
			if err := en.tick.Step(); err != nil {
				return nil, err
			}
			if en.alg.Holds(en.g, cond, m.Binding) {
				out = append(out, m)
			}
		}
		return out, nil
	case Elem:
		return en.elems(n.Elem())
	default:
		return nil, fmt.Errorf("coregql: unknown pattern %T", p)
	}
}

// elems matches the single-node paths of the live nodes, or the one-edge
// paths of the live edges, labelled label ("" for any), binding each
// element to v.
func (en *enumerator[L, B]) elems(edge bool, label, v string) ([]MatchOf[B], error) {
	g := en.g
	n := g.NumNodes()
	if edge {
		n = g.NumEdges()
	}
	out := make([]MatchOf[B], 0, n)
	for i := 0; i < n; i++ {
		if err := en.tick.Step(); err != nil {
			return nil, err
		}
		switch {
		case !edge && g.NodeAlive(i) && (label == "" || g.Node(i).Label == label):
			out = append(out, MatchOf[B]{Path: gpath.OfNode(i), Binding: en.alg.Bind(v, graph.MakeNodeObject(i))})
		case edge && g.EdgeAlive(i) && (label == "" || g.Edge(i).Label == label):
			out = append(out, MatchOf[B]{Path: gpath.Triple(g, i), Binding: en.alg.Bind(v, graph.MakeEdgeObject(i))})
		}
	}
	return out, nil
}

// join composes two match sets node to node (tgt(p₁) = src(p₂)), keeping
// the pairs whose bindings join and whose path fits MaxLen.
func (en *enumerator[L, B]) join(left, right []MatchOf[B]) ([]MatchOf[B], error) {
	g := en.g
	bySrc := map[int][]MatchOf[B]{}
	for _, m := range right {
		if s, ok := m.Path.Src(g); ok {
			bySrc[s] = append(bySrc[s], m)
		}
	}
	var out []MatchOf[B]
	for _, lm := range left {
		t, ok := lm.Path.Tgt(g)
		if !ok {
			continue
		}
		for _, rm := range bySrc[t] {
			if err := en.tick.Step(); err != nil {
				return nil, err
			}
			if en.maxLen > 0 && lm.Path.Len()+rm.Path.Len() > en.maxLen {
				continue
			}
			b, ok, err := en.alg.Join(lm.Binding, rm.Binding)
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
			out = append(out, MatchOf[B]{Path: joined, Binding: b})
		}
	}
	return en.dedup(out), nil
}

// repeat implements ⟦π^{n..m}⟧ of Figure 4: iterated node-to-node
// composition of the body's matches, their bindings made what the algebra
// makes of an iteration.
func (en *enumerator[L, B]) repeat(sub automata.Expr[L], min, max int) ([]MatchOf[B], error) {
	base, err := en.eval(sub)
	if err != nil {
		return nil, err
	}
	unit := make([]MatchOf[B], len(base))
	for i, m := range base {
		unit[i] = MatchOf[B]{Path: m.Path, Binding: en.alg.Iterate(m.Binding)}
	}
	unit = en.dedup(unit)

	// ⟦π⟧⁰: the single-node paths, binding nothing.
	level, err := en.elems(false, "", "")
	if err != nil {
		return nil, err
	}
	var out []MatchOf[B]
	if min == 0 {
		out = append(out, level...)
	}
	// seen tracks every match produced at any level; once a level introduces
	// nothing new, no later level can either, so unbounded iteration may
	// stop.
	seen := map[string]struct{}{}
	for _, m := range level {
		seen[en.key(m)] = struct{}{}
	}
	for j := 1; max < 0 || j <= max; j++ {
		if level, err = en.join(level, unit); err != nil {
			return nil, err
		}
		if j >= min {
			out = append(out, level...)
		}
		anyFresh := false
		for _, m := range level {
			k := en.key(m)
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				anyFresh = true
			}
		}
		if max < 0 && !anyFresh || len(level) == 0 {
			break
		}
	}
	return en.dedup(out), nil
}

// Output computes the pattern-with-output relation ⟦π_Ω⟧_G of Section
// 4.1.2. Ω items are either a bare variable "x" (the bound element) or
// "x.k" (a property of the bound element); matches where some item is
// undefined are dropped (no nulls).
func Output(g *graph.Graph, p Pattern, omega []string, opts Options) (*relalg.Relation, error) {
	ms, err := EvalPattern(g, p, opts)
	if err != nil {
		return nil, err
	}
	rel, err := relalg.NewRelation(omega...)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		t := make([]relalg.Cell, len(omega))
		ok := true
		for i, item := range omega {
			varName, prop, _ := strings.Cut(item, ".")
			o, bound := m.Binding[varName]
			if !bound {
				ok = false
				break
			}
			if prop == "" {
				if o.IsEdge() {
					t[i] = relalg.EdgeCell(o.Index())
				} else {
					t[i] = relalg.NodeCell(o.Index())
				}
				continue
			}
			v, defined := g.Prop(o, prop)
			if !defined {
				ok = false
				break
			}
			t[i] = relalg.ValueCell(v)
		}
		if !ok {
			continue // µ not compatible with Ω
		}
		if err := rel.Add(t...); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
