package dlrpq

import "graphquery/internal/automata"

// ATrans is a transition of an atom automaton: consuming one atom moves to
// state To.
type ATrans struct {
	Atom Atom
	To   int
}

// ANFA is the Glushkov automaton of a dl-RPQ over the atom alphabet. It is
// the finite-state skeleton of the register automaton used for evaluation:
// states track the regular structure, while value assignments ν (the
// registers) live in the evaluation configurations.
type ANFA automata.Automaton[ATrans]

// Compile builds the atom automaton of e via the Glushkov construction.
func Compile(e Expr) *ANFA {
	return (*ANFA)(automata.Glushkov(e, func(a Expr, to int) ATrans {
		return ATrans{Atom: a.(Atom), To: to}
	}))
}
