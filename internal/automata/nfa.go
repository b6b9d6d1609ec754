// Package automata implements the finite-automata toolkit of Section 6.2 of
// the paper: ε-free NFAs over the (infinite) label alphabet with co-finite
// wildcard guards (Remark 11), the product construction, determinization,
// complement, minimization, emptiness, language equivalence, and the
// unambiguity test needed for counting matching paths.
//
// Because Labels is infinite, transitions carry symbolic guards: either a
// finite positive set of labels or a co-finite set !S ("every label not in
// S"). All constructions work over the finite set of labels mentioned by the
// automata involved, plus one sentinel class standing for "any other label" —
// the standard minterm technique for symbolic alphabets.
package automata

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Guard is a symbolic transition label: a finite set of labels (Negated
// false) or the complement of a finite set (Negated true, the paper's !S
// wildcard). The wildcard "_" that matches every label is !∅.
type Guard struct {
	Negated bool
	Labels  []string // sorted, distinct
}

// GuardLabel returns the guard matching exactly the single label a.
func GuardLabel(a string) Guard { return Guard{Labels: []string{a}} }

// GuardAny returns the wildcard guard !∅ matching every label.
func GuardAny() Guard { return Guard{Negated: true} }

// GuardNotIn returns the co-finite guard !S.
func GuardNotIn(labels ...string) Guard {
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	ls = slices.Compact(ls)
	return Guard{Negated: true, Labels: ls}
}

// GuardIn returns the guard matching any label in the finite set.
func GuardIn(labels ...string) Guard {
	ls := append([]string(nil), labels...)
	sort.Strings(ls)
	ls = slices.Compact(ls)
	return Guard{Labels: ls}
}

// Matches reports whether the guard accepts label a.
func (g Guard) Matches(a string) bool {
	i := sort.SearchStrings(g.Labels, a)
	in := i < len(g.Labels) && g.Labels[i] == a
	return in != g.Negated
}

// String renders the guard.
func (g Guard) String() string {
	if g.Negated {
		if len(g.Labels) == 0 {
			return "_"
		}
		return "!{" + strings.Join(g.Labels, ",") + "}"
	}
	if len(g.Labels) == 1 {
		return g.Labels[0]
	}
	return "{" + strings.Join(g.Labels, ",") + "}"
}

// Transition is an NFA transition src --guard--> dst.
type Transition struct {
	Guard Guard
	To    int
}

// NFA is an ε-free nondeterministic finite automaton (Q, Σ, δ, q₀, F) with
// symbolic guards. States are 0..NumStates-1.
type NFA Automaton[Transition]

// NewNFA allocates an NFA with n states, start state start, and no
// transitions or accepting states.
func NewNFA(n, start int) *NFA {
	return &NFA{
		NumStates: n,
		Start:     start,
		Accept:    make([]bool, n),
		Trans:     make([][]Transition, n),
	}
}

// AddTransition adds from --guard--> to.
func (a *NFA) AddTransition(from int, g Guard, to int) {
	a.Trans[from] = append(a.Trans[from], Transition{Guard: g, To: to})
}

// SetAccept marks state q accepting.
func (a *NFA) SetAccept(q int) { a.Accept[q] = true }

// NumTransitions returns the total transition count (automaton size measure).
func (a *NFA) NumTransitions() int {
	n := 0
	for _, ts := range a.Trans {
		n += len(ts)
	}
	return n
}

// MentionedLabels returns the sorted set of labels appearing in any guard.
func (a *NFA) MentionedLabels() []string {
	set := map[string]struct{}{}
	for _, ts := range a.Trans {
		for _, t := range ts {
			for _, l := range t.Guard.Labels {
				set[l] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Accepts runs the NFA on the word (sequence of labels) by subset
// simulation.
func (a *NFA) Accepts(word []string) bool {
	cur := map[int]struct{}{a.Start: {}}
	for _, sym := range word {
		next := map[int]struct{}{}
		for q := range cur {
			for _, t := range a.Trans[q] {
				if t.Guard.Matches(sym) {
					next[t.To] = struct{}{}
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for q := range cur {
		if a.Accept[q] {
			return true
		}
	}
	return false
}

// CountRuns returns the number of distinct accepting runs of the NFA on
// word; used to validate the unambiguity test.
func (a *NFA) CountRuns(word []string) int {
	runs := make([]int, a.NumStates)
	runs[a.Start] = 1
	for _, sym := range word {
		next := make([]int, a.NumStates)
		for q, c := range runs {
			if c == 0 {
				continue
			}
			for _, t := range a.Trans[q] {
				if t.Guard.Matches(sym) {
					next[t.To] += c
				}
			}
		}
		runs = next
	}
	total := 0
	for q, c := range runs {
		if a.Accept[q] {
			total += c
		}
	}
	return total
}

// IsEmpty reports whether L(A) = ∅ (no accepting state reachable).
func (a *NFA) IsEmpty() bool {
	seen := make([]bool, a.NumStates)
	stack := []int{a.Start}
	seen[a.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.Accept[q] {
			return false
		}
		for _, t := range a.Trans[q] {
			if !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return true
}

// reachable returns the set of states reachable from Start.
func (a *NFA) reachable() []bool {
	seen := make([]bool, a.NumStates)
	stack := []int{a.Start}
	seen[a.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.Trans[q] {
			if !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return seen
}

// coReachable returns the set of states from which an accepting state is
// reachable.
func (a *NFA) coReachable() []bool {
	rev := make([][]int, a.NumStates)
	for q, ts := range a.Trans {
		for _, t := range ts {
			rev[t.To] = append(rev[t.To], q)
		}
	}
	seen := make([]bool, a.NumStates)
	var stack []int
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Trim returns an equivalent NFA containing only useful states (reachable
// and co-reachable). If the language is empty, the result is a one-state
// automaton with no accepting states.
func (a *NFA) Trim() *NFA {
	reach, coreach := a.reachable(), a.coReachable()
	remap := make([]int, a.NumStates)
	n := 0
	for q := 0; q < a.NumStates; q++ {
		if reach[q] && coreach[q] {
			remap[q] = n
			n++
		} else {
			remap[q] = -1
		}
	}
	if n == 0 || remap[a.Start] == -1 {
		return NewNFA(1, 0)
	}
	out := NewNFA(n, remap[a.Start])
	for q := 0; q < a.NumStates; q++ {
		if remap[q] == -1 {
			continue
		}
		if a.Accept[q] {
			out.SetAccept(remap[q])
		}
		for _, t := range a.Trans[q] {
			if remap[t.To] != -1 {
				out.AddTransition(remap[q], t.Guard, remap[t.To])
			}
		}
	}
	return out
}

// Union returns an NFA for L(A) ∪ L(B) (ε-free construction: a fresh start
// state inherits the outgoing transitions of both starts).
func Union(a, b *NFA) *NFA {
	n := a.NumStates + b.NumStates
	out := NewNFA(n+1, n)
	offB := a.NumStates
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			out.SetAccept(q)
		}
		for _, t := range a.Trans[q] {
			out.AddTransition(q, t.Guard, t.To)
		}
	}
	for q := 0; q < b.NumStates; q++ {
		if b.Accept[q] {
			out.SetAccept(offB + q)
		}
		for _, t := range b.Trans[q] {
			out.AddTransition(offB+q, t.Guard, offB+t.To)
		}
	}
	for _, t := range a.Trans[a.Start] {
		out.AddTransition(n, t.Guard, t.To)
	}
	for _, t := range b.Trans[b.Start] {
		out.AddTransition(n, t.Guard, offB+t.To)
	}
	if a.Accept[a.Start] || b.Accept[b.Start] {
		out.SetAccept(n)
	}
	return out
}

// guardIntersect returns the intersection of two guards and whether it is
// non-empty (as a satisfiable symbolic class).
func guardIntersect(g, h Guard) (Guard, bool) {
	switch {
	case !g.Negated && !h.Negated:
		var both []string
		for _, l := range g.Labels {
			if h.Matches(l) {
				both = append(both, l)
			}
		}
		if len(both) == 0 {
			return Guard{}, false
		}
		return Guard{Labels: both}, true
	case !g.Negated && h.Negated:
		var kept []string
		for _, l := range g.Labels {
			if h.Matches(l) {
				kept = append(kept, l)
			}
		}
		if len(kept) == 0 {
			return Guard{}, false
		}
		return Guard{Labels: kept}, true
	case g.Negated && !h.Negated:
		return guardIntersect(h, g)
	default: // both negated: !S ∩ !T = !(S ∪ T), always non-empty (alphabet infinite)
		union := append(append([]string(nil), g.Labels...), h.Labels...)
		sort.Strings(union)
		return Guard{Negated: true, Labels: slices.Compact(union)}, true
	}
}

// Intersect returns the product automaton recognizing L(A) ∩ L(B).
func Intersect(a, b *NFA) *NFA {
	out := NewNFA(a.NumStates*b.NumStates, a.Start*b.NumStates+b.Start)
	id := func(p, q int) int { return p*b.NumStates + q }
	for p := 0; p < a.NumStates; p++ {
		for q := 0; q < b.NumStates; q++ {
			if a.Accept[p] && b.Accept[q] {
				out.SetAccept(id(p, q))
			}
			for _, t := range a.Trans[p] {
				for _, u := range b.Trans[q] {
					if g, ok := guardIntersect(t.Guard, u.Guard); ok {
						out.AddTransition(id(p, q), g, id(t.To, u.To))
					}
				}
			}
		}
	}
	return out
}

// IsUnambiguous reports whether the automaton has at most one accepting run
// per word. The test is the classical self-product criterion on the trimmed
// automaton: A is ambiguous iff the trimmed self-product contains a useful
// state pair (p, q) with p ≠ q.
func (a *NFA) IsUnambiguous() bool {
	t := a.Trim()
	prod := Intersect(t, t)
	reach, coreach := prod.reachable(), prod.coReachable()
	for p := 0; p < t.NumStates; p++ {
		for q := 0; q < t.NumStates; q++ {
			if p == q {
				continue
			}
			s := p*t.NumStates + q
			if reach[s] && coreach[s] {
				return false
			}
		}
	}
	return true
}

// ShortestAcceptedWord returns a minimum-length word in L(A), using BFS over
// the subset construction. Wildcard classes are rendered with a fresh label
// outside the mentioned set. ok is false when the language is empty.
func (a *NFA) ShortestAcceptedWord() ([]string, bool) {
	d := a.Determinize()
	return d.ShortestAcceptedWord()
}

// String renders the automaton for debugging.
func (a *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA(states=%d, start=%d)\n", a.NumStates, a.Start)
	for q := 0; q < a.NumStates; q++ {
		marker := " "
		if a.Accept[q] {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s%d:", marker, q)
		for _, t := range a.Trans[q] {
			fmt.Fprintf(&b, " --%s-->%d", t.Guard, t.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
