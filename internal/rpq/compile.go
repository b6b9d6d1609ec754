package rpq

import "graphquery/internal/automata"

// Compile translates an RPQ expression into an equivalent ε-free NFA using
// the Glushkov (position automaton) construction — the "routine methods" the
// paper appeals to in Section 6.2 ("an equivalent NFA without ε-transitions
// can be constructed efficiently"). The automaton has one state per label
// occurrence plus an initial state.
func Compile(e Expr) *automata.NFA {
	return (*automata.NFA)(automata.Glushkov(e, func(a Expr, to int) automata.Transition {
		if w, ok := a.(NotIn); ok {
			return automata.Transition{Guard: automata.GuardNotIn(w.Set...), To: to}
		}
		return automata.Transition{Guard: automata.GuardLabel(a.(Label).Name), To: to}
	}))
}

// Matches reports whether the label word is in L(e); a convenience that
// compiles and runs the Glushkov automaton.
func Matches(e Expr, word []string) bool {
	return Compile(e).Accepts(word)
}

// Equivalent reports whether two RPQs denote the same language.
func Equivalent(a, b Expr) bool {
	return automata.Equivalent(Compile(a), Compile(b))
}

// Contained reports whether L(a) ⊆ L(b): RPQ containment, the fundamental
// static-analysis problem of Section 7.1 (for single RPQs it reduces to
// regular-language inclusion; for CRPQs it is EXPSPACE-complete and out of
// scope here).
func Contained(a, b Expr) bool {
	return automata.Contained(Compile(a), Compile(b))
}
