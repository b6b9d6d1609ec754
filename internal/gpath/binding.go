package gpath

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"graphquery/internal/graph"
)

// List is a list(o₁,…,oₙ) of graph objects, the image type of list-variable
// bindings (Section 3.1.4).
type List []graph.Object

// ConcatLists returns the concatenation list(o₁,…,oₙ,o′₁,…,o′ₘ).
func ConcatLists(a, b List) List {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(List, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Equal reports element-wise equality.
func (l List) Equal(m List) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string for deduplication.
func (l List) Key() string {
	return string(appendKey(make([]byte, 0, 8*len(l)), l))
}

// Format renders the list with external IDs, e.g. "list(t2, t3)".
func (l List) Format(g *graph.Graph) string {
	parts := make([]string, len(l))
	for i, o := range l {
		parts[i] = g.ObjectID(o)
	}
	return "list(" + strings.Join(parts, ", ") + ")"
}

// Binding is a binding µ: Var → lists of graph objects. Per Section 3.1.4,
// bindings are conceptually total on Var but map all but finitely many
// variables to the empty list; we represent only the non-empty support, so
// the zero Binding is µ₀ (every variable ↦ list()).
type Binding map[string]List

// EmptyBinding returns µ₀.
func EmptyBinding() Binding { return nil }

// Singleton returns µ_{z↦o}: z maps to list(o), everything else to list().
func Singleton(z string, o graph.Object) Binding {
	return Binding{z: List{o}}
}

// Get returns µ(z) (the empty list when z is outside the support).
func (m Binding) Get(z string) List { return m[z] }

// ConcatBindings returns µ₁·µ₂, the pointwise list concatenation.
func ConcatBindings(a, b Binding) Binding {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(Binding, len(a)+len(b))
	for z, l := range a {
		out[z] = l
	}
	for z, l := range b {
		out[z] = ConcatLists(out[z], l)
	}
	return out
}

// Equal reports whether two bindings agree on every variable.
func (m Binding) Equal(n Binding) bool {
	for z, l := range m {
		if !l.Equal(n[z]) {
			return false
		}
	}
	for z, l := range n {
		if _, ok := m[z]; !ok && len(l) > 0 {
			return false
		}
	}
	return true
}

// Vars returns the sorted variables with non-empty lists.
func (m Binding) Vars() []string {
	vs := make([]string, 0, len(m))
	for z, l := range m {
		if len(l) > 0 {
			vs = append(vs, z)
		}
	}
	sort.Strings(vs)
	return vs
}

// Key returns a canonical string for deduplication (set semantics over
// (path, binding) pairs).
func (m Binding) Key() string {
	var b []byte
	for _, z := range m.Vars() {
		b = append(b, z...)
		b = append(b, '=')
		b = appendKey(b, m[z])
		b = append(b, ';')
	}
	return string(b)
}

// Format renders the binding with external IDs, e.g. "{z ↦ list(t2, t3)}".
func (m Binding) Format(g *graph.Graph) string {
	vs := m.Vars()
	parts := make([]string, len(vs))
	for i, z := range vs {
		parts[i] = z + " -> " + m[z].Format(g)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// PathBinding is a pair (p, µ) as produced by ℓ-RPQ and dl-RPQ evaluation.
type PathBinding struct {
	Path    Path
	Binding Binding
}

// Key returns a canonical deduplication key for the pair.
func (pb PathBinding) Key() string { return pb.Path.Key() + "|" + pb.Binding.Key() }

// SortResults puts (p, µ) results in the order the path evaluators answer
// in: by path length, then path key, then binding key. Each result's keys
// are built once, before the sort.
func SortResults(pbs []PathBinding) {
	type keyed struct {
		pb            PathBinding
		path, binding string
	}
	ks := make([]keyed, len(pbs))
	for i, pb := range pbs {
		ks[i] = keyed{pb, pb.Path.Key(), pb.Binding.Key()}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.pb.Path.Len(), b.pb.Path.Len()),
			strings.Compare(a.path, b.path), strings.Compare(a.binding, b.binding))
	})
	for i := range ks {
		pbs[i] = ks[i].pb
	}
}

// Head puts results in result order (SortResults) and keeps the first
// limit of them (limit ≤ 0: all).
func Head(pbs []PathBinding, limit int) []PathBinding {
	SortResults(pbs)
	if limit > 0 && len(pbs) > limit {
		pbs = pbs[:limit]
	}
	return pbs
}

// Deepen answers a query under a limit by iterative deepening. pass(bound)
// returns every result of length ≤ bound and whether the bound cut a branch
// that might lead to more. Deepen doubles the bound, never past maxLen when
// that is set (> 0), until the results reach limit or nothing was cut, and
// returns their Head. Results are ordered by length first, so that head is
// the head of the unlimited answer.
//
// states is the number P of states the search's runs go through (0: not
// known). Cutting the loop out of a run longer than P leaves a run at most
// P shorter, so once a bound b ≥ P, a pass at 2b that finds no more results
// than the pass at b ends the search even when the bound cut a branch.
func Deepen(limit, maxLen, states int, pass func(bound int) ([]PathBinding, bool, error)) ([]PathBinding, error) {
	last := -1 // results of the pass at the last bound ≥ states
	for bound := 1; ; bound *= 2 {
		if maxLen > 0 && bound > maxLen {
			bound = maxLen
		}
		res, cut, err := pass(bound)
		if err != nil {
			return nil, err
		}
		if len(res) >= limit || !cut || bound == maxLen || len(res) == last {
			return Head(res, limit), nil
		}
		if states > 0 && bound >= states {
			last = len(res)
		}
	}
}
