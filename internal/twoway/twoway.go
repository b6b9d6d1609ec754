// Package twoway implements two-way regular path queries (2RPQs): RPQs
// extended with inverse labels a⁻ that traverse edges backwards. The paper
// works with one-way paths "just for the sake of technical simplicity"
// (Remark 9) and cites the 2RPQ literature [Calvanese et al., KR/PODS 2000]
// in Figure 1; this package supplies the extension: a 2RPQ AST with inverse
// atoms (written ~a), Glushkov compilation to a direction-annotated NFA,
// and product-construction evaluation that walks edges in both directions.
package twoway

import (
	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// lang is the 2RPQ tag type; 2RPQs are written like RPQs.
type lang struct{}

func (lang) Notation() automata.Notation {
	return automata.Notation{Open: "(", Close: ")", Epsilon: "()", Seq: " ", Or: " | "}
}

// Expr is a 2RPQ expression.
type Expr = automata.Expr[lang]

type (
	// Epsilon is ε.
	Epsilon = automata.Epsilon[lang]
	// Concat is R₁·…·Rₙ.
	Concat = automata.Concat[lang]
	// Union is R₁+…+Rₙ.
	Union = automata.Alternation[lang]
	// Star is R*.
	Star = automata.Star[lang]
	// Repeat is R{Min,Max}; Max < 0 means ∞.
	Repeat = automata.Repeat[lang]
)

// Atom matches one edge: forwards (src→tgt) by default, backwards
// (tgt→src) when Inverse is set. Wild atoms match any label outside Except.
type Atom struct {
	Name    string
	Wild    bool
	Except  []string
	Inverse bool
}

func (Atom) Language() lang { return lang{} }

func (a Atom) String() string {
	return syntax.Format(rpq.Base{Name: a.Name, Wild: a.Wild, Except: a.Except, Prefixed: a.Inverse})
}

// syntax reads a 2RPQ: the RPQ syntax with a '~' prefix for inverse atoms
// (~a, ~_, ~!{a,b}).
var syntax = rpq.Syntax[lang]{Name: "twoway", Prefix: '~', Atom: func(a rpq.Base) Expr {
	return Atom{Name: a.Name, Wild: a.Wild, Except: a.Except, Inverse: a.Prefixed}
}}

// Parse parses the 2RPQ syntax: the RPQ syntax of package rpq, quoted
// labels and all, plus a '~' prefix for inverse atoms.
func Parse(input string) (Expr, error) { return syntax.Parse(input) }

// MustParse parses or panics.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// TTrans is a direction-annotated NFA transition.
type TTrans struct {
	Guard automata.Guard
	Back  bool // traverse the matched edge tgt→src
	To    int
}

// TNFA is the two-way automaton: an NFA whose transitions carry a
// traversal direction.
type TNFA automata.Automaton[TTrans]

// Compile builds the Glushkov automaton with direction annotations.
func Compile(e Expr) *TNFA {
	return (*TNFA)(automata.Glushkov(e, func(e Expr, to int) TTrans {
		a := e.(Atom)
		var guard automata.Guard
		if a.Wild {
			guard = automata.GuardNotIn(a.Except...)
		} else {
			guard = automata.GuardLabel(a.Name)
		}
		return TTrans{Guard: guard, Back: a.Inverse, To: to}
	}))
}

// machineFor resolves a compiled TNFA against g into a runtime machine:
// direction annotations become Back-flagged transitions, and guards are
// resolved by the shared pg guard resolution (transitions whose positive
// guard matches no label of g are dropped).
func machineFor(g *graph.Graph, a *TNFA) *pg.Machine {
	m := pg.NewMachine(a.NumStates, a.Start)
	for q := 0; q < a.NumStates; q++ {
		if a.Accept[q] {
			m.SetAccept(q)
		}
		for _, t := range a.Trans[q] {
			rg, ok := pg.Resolve(g, t.Guard)
			if !ok {
				continue
			}
			m.Add(q, pg.Trans{To: t.To, Back: t.Back, ResolvedGuard: rg})
		}
	}
	return m
}

// Kernel compiles e for evaluation over g on the unified product-graph
// runtime; c (may be nil) receives the kernel's runtime counters. The
// kernel is immutable and serves concurrent queries.
func Kernel(g *graph.Graph, e Expr, c *pg.Counters) *pg.Kernel {
	return pg.NewKernel(g, machineFor(g, Compile(e)), c)
}

// Options configure evaluation on the unified runtime.
type Options struct {
	// Parallelism caps the per-source fan-out degree; 0 means one worker
	// per available CPU, 1 forces the sequential path.
	Parallelism int
	// Counters (may be nil) receives the kernel's runtime counters.
	Counters *pg.Counters
}

// Pairs computes ⟦R⟧_G for the 2RPQ: pairs (u, v) connected by a two-way
// path matching R, via kernel sweeps that follow out-edges on forward
// transitions and in-edges on inverse transitions. The output needs no
// final sort: sources are merged ascending and each per-source result is
// ascending, so it is lexicographically sorted by construction.
func Pairs(g *graph.Graph, e Expr) [][2]int {
	out, _ := PairsMeterOpt(g, e, nil, Options{Parallelism: 1}) // nil meter: cannot fail
	return out
}

// PairsMeterOpt is Pairs under a shared meter (nil means unlimited) —
// evaluation stops with pg.ErrCanceled or pg.ErrBudgetExceeded — with
// explicit runtime options: the fan-out degree (output is identical at any
// parallelism) and runtime counters. It compiles a kernel per call; a caller that evaluates one query repeatedly
// compiles it once with Kernel and runs PairsKernel — or, to have the pairs
// as they are found rather than collected, the kernel's SweepAll.
func PairsMeterOpt(g *graph.Graph, e Expr, m *pg.Meter, opts Options) ([][2]int, error) {
	return PairsKernel(Kernel(g, e, opts.Counters), m, opts.Parallelism)
}

// PairsKernel evaluates the all-pairs semantics of a compiled 2RPQ kernel
// (see Kernel) through the runtime's all-sources driver: pairs arrive
// sources ascending, each source's targets ascending, so the output is
// lexicographically sorted by construction. Every pair is a result row,
// charged in that order, so a MaxRows budget trips on row MaxRows+1. It is
// the collecting face of that driver for the library API: the runs become
// index pairs here.
func PairsKernel(kern *pg.Kernel, m *pg.Meter, parallelism int) ([][2]int, error) {
	var out [][2]int
	err := kern.SweepAll(pg.Workers(parallelism), m, true, func(part pg.Runs) error {
		out = eval.AppendPairs(out, part)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Witness returns one shortest two-way walk (as the visited node sequence —
// edges may be traversed in either direction, so the result is a node
// itinerary rather than a gpath.Path). ok is false when no walk exists. The
// walk is read off the shortest-path DAG of the kernel's search between the
// two nodes: from a start state, each step is the first Succ step into the
// DAG's next level, so the choice among equal-length witnesses is
// deterministic.
func Witness(g *graph.Graph, e Expr, src, dst int) ([]int, bool) {
	kern := Kernel(g, e, nil)
	meet, err := kern.Between(src, dst, nil)
	if err != nil || meet.Len < 0 {
		return nil, false
	}
	// onDAG reports whether s is the DAG state at depth d.
	onDAG := func(s pg.State, d int) bool {
		i := meet.Index(kern.ID(s))
		return i >= 0 && int(meet.Depths()[i]) == d
	}
	var cur pg.State
	for _, q := range kern.Semantics().Starts() {
		if cur = (pg.State{Node: src, State: q}); onDAG(cur, 0) {
			break
		}
	}
	seq := []int{src}
	for d := 1; d <= meet.Len; d++ {
		for _, st := range kern.Succ(cur) {
			if onDAG(st.To, d) {
				cur = st.To
				break
			}
		}
		seq = append(seq, cur.Node)
	}
	return seq, true
}
