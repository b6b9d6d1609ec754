package lrpq

import "graphquery/internal/automata"

// VTransition is a variable-annotated NFA transition: it consumes one edge
// matching Guard and, if Var is non-empty, appends that edge to Var's list.
type VTransition struct {
	Guard automata.Guard
	Var   string
	To    int
}

// VNFA is a variable-annotated NFA — the ℓ-RPQ analogue of the document-
// spanner variable-set automaton. Because variables annotate transitions
// (not states), the translation from expressions is the plain Glushkov
// construction and preserves all regular identities, in particular
// ⟦R{2}⟧ = ⟦R·R⟧ (Section 3.1.4).
type VNFA automata.Automaton[VTransition]

// Compile builds the Glushkov automaton of an ℓ-RPQ with annotated
// positions.
func Compile(e Expr) *VNFA {
	return (*VNFA)(automata.Glushkov(e, func(e Expr, to int) VTransition {
		a := e.(Atom)
		var guard automata.Guard
		if a.Wild {
			guard = automata.GuardNotIn(a.Except...)
		} else {
			guard = automata.GuardLabel(a.Name)
		}
		return VTransition{Guard: guard, Var: a.Var, To: to}
	}))
}

// Erased returns the plain NFA obtained by dropping variable annotations;
// useful for reachability pre-checks.
func (a *VNFA) Erased() *automata.NFA {
	out := automata.NewNFA(a.NumStates, a.Start)
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			out.SetAccept(q)
		}
		for _, t := range a.Trans[q] {
			out.AddTransition(q, t.Guard, t.To)
		}
	}
	return out
}
