// Package twoway implements two-way regular path queries (2RPQs): RPQs
// extended with inverse labels a⁻ that traverse edges backwards. The paper
// works with one-way paths "just for the sake of technical simplicity"
// (Remark 9) and cites the 2RPQ literature [Calvanese et al., KR/PODS 2000]
// in Figure 1; this package supplies the extension: a 2RPQ AST with inverse
// atoms (written ~a), Glushkov compilation to a direction-annotated NFA,
// and product-construction evaluation that walks edges in both directions.
package twoway

import (
	"fmt"
	"strings"
	"unicode"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// Expr is a 2RPQ expression.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Epsilon is ε.
type Epsilon struct{}

// Atom matches one edge: forwards (src→tgt) by default, backwards
// (tgt→src) when Inverse is set. Wild atoms match any label outside Except.
type Atom struct {
	Name    string
	Wild    bool
	Except  []string
	Inverse bool
}

// Concat is R₁·…·Rₙ.
type Concat struct{ Parts []Expr }

// Union is R₁+…+Rₙ.
type Union struct{ Alts []Expr }

// Star is R*.
type Star struct{ Sub Expr }

// Repeat is R{Min,Max}; Max < 0 means ∞.
type Repeat struct {
	Sub Expr
	Min int
	Max int
}

func (Epsilon) isExpr() {}
func (Atom) isExpr()    {}
func (Concat) isExpr()  {}
func (Union) isExpr()   {}
func (Star) isExpr()    {}
func (Repeat) isExpr()  {}

func (Epsilon) String() string { return "()" }

func (a Atom) String() string {
	var base string
	switch {
	case a.Wild && len(a.Except) == 0:
		base = "_"
	case a.Wild:
		base = "!{" + strings.Join(a.Except, ",") + "}"
	default:
		base = a.Name
	}
	if a.Inverse {
		return "~" + base
	}
	return base
}

func (c Concat) String() string {
	parts := make([]string, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = childString(p, 2)
	}
	return strings.Join(parts, " ")
}

func (u Union) String() string {
	parts := make([]string, len(u.Alts))
	for i, a := range u.Alts {
		parts[i] = childString(a, 2)
	}
	return strings.Join(parts, " | ")
}

func (s Star) String() string { return childString(s.Sub, 3) + "*" }

func (r Repeat) String() string {
	sub := childString(r.Sub, 3)
	switch {
	case r.Min == 0 && r.Max == 1:
		return sub + "?"
	case r.Min == 1 && r.Max < 0:
		return sub + "+"
	case r.Max < 0:
		return fmt.Sprintf("%s{%d,}", sub, r.Min)
	case r.Min == r.Max:
		return fmt.Sprintf("%s{%d}", sub, r.Min)
	default:
		return fmt.Sprintf("%s{%d,%d}", sub, r.Min, r.Max)
	}
}

func childString(e Expr, parent int) string {
	var prec int
	switch e.(type) {
	case Epsilon, Atom, Star, Repeat:
		prec = 3
	case Concat:
		prec = 2
	case Union:
		prec = 1
	}
	s := e.String()
	if prec < parent {
		return "(" + s + ")"
	}
	return s
}

// Constructors.

// Seq returns a concatenation.
func Seq(parts ...Expr) Expr {
	switch len(parts) {
	case 0:
		return Epsilon{}
	case 1:
		return parts[0]
	default:
		return Concat{Parts: parts}
	}
}

// Alt returns a disjunction.
func Alt(alts ...Expr) Expr {
	switch len(alts) {
	case 0:
		panic("twoway: Alt needs at least one alternative")
	case 1:
		return alts[0]
	default:
		return Union{Alts: alts}
	}
}

// Kleene returns R*.
func Kleene(e Expr) Expr { return Star{Sub: e} }

// PlusOf returns R⁺.
func PlusOf(e Expr) Expr { return Repeat{Sub: e, Min: 1, Max: -1} }

// desugar expands Repeat nodes.
func desugar(e Expr) Expr {
	switch n := e.(type) {
	case Epsilon, Atom:
		return e
	case Concat:
		parts := make([]Expr, len(n.Parts))
		for i, p := range n.Parts {
			parts[i] = desugar(p)
		}
		return Concat{Parts: parts}
	case Union:
		alts := make([]Expr, len(n.Alts))
		for i, a := range n.Alts {
			alts[i] = desugar(a)
		}
		return Union{Alts: alts}
	case Star:
		return Star{Sub: desugar(n.Sub)}
	case Repeat:
		sub := desugar(n.Sub)
		var parts []Expr
		for i := 0; i < n.Min; i++ {
			parts = append(parts, sub)
		}
		switch {
		case n.Max < 0:
			parts = append(parts, Star{Sub: sub})
		case n.Max < n.Min:
			panic(fmt.Sprintf("twoway: invalid repetition {%d,%d}", n.Min, n.Max))
		default:
			opt := Union{Alts: []Expr{Epsilon{}, sub}}
			for i := n.Min; i < n.Max; i++ {
				parts = append(parts, opt)
			}
		}
		return Seq(parts...)
	default:
		panic(fmt.Sprintf("twoway: unknown expression %T", e))
	}
}

// CheckPositions is rpq.CheckPositions for a 2RPQ: the refusal a served
// path gives before compiling an expression of more than rpq.MaxPositions
// Glushkov positions.
func CheckPositions(e Expr) error {
	return rpq.PositionsError(positions(e, 1<<30))
}

// positions bounds the positions desugar leaves in e, saturating at limit
// (see rpq.Positions).
func positions(e Expr, limit int) int {
	n := 0
	switch e := e.(type) {
	case Epsilon, Atom:
		n = 1
	case Concat:
		for _, p := range e.Parts {
			n += positions(p, limit)
		}
	case Union:
		for _, a := range e.Alts {
			n += positions(a, limit)
		}
	case Star:
		n = positions(e.Sub, limit)
	case Repeat:
		n = positions(e.Sub, limit) * max(min(e.Min, limit)+1, min(e.Max, limit))
	}
	if n < 0 || n > limit {
		return limit
	}
	return n
}

// TTrans is a direction-annotated NFA transition.
type TTrans struct {
	Guard automata.Guard
	Back  bool // traverse the matched edge tgt→src
	To    int
}

// TNFA is the two-way automaton: an NFA whose transitions carry a
// traversal direction.
type TNFA struct {
	NumStates int
	Start     int
	Accept    []bool
	Trans     [][]TTrans
}

// Compile builds the Glushkov automaton with direction annotations.
func Compile(e Expr) *TNFA {
	core := desugar(e)
	g := &tglushkov{}
	info := g.analyze(core)
	a := &TNFA{
		NumStates: len(g.positions) + 1,
		Start:     0,
		Accept:    make([]bool, len(g.positions)+1),
		Trans:     make([][]TTrans, len(g.positions)+1),
	}
	if info.nullable {
		a.Accept[0] = true
	}
	add := func(from, pos int) {
		p := g.positions[pos]
		a.Trans[from] = append(a.Trans[from], TTrans{Guard: p.guard, Back: p.back, To: pos + 1})
	}
	for _, p := range info.first {
		add(0, p)
	}
	for p, follows := range g.follow {
		for _, q := range follows {
			add(p+1, q)
		}
	}
	for _, p := range info.last {
		a.Accept[p+1] = true
	}
	return a
}

type tposition struct {
	guard automata.Guard
	back  bool
}

type tglushkov struct {
	positions []tposition
	follow    [][]int
}

type tinfo struct {
	nullable bool
	first    []int
	last     []int
}

func (g *tglushkov) analyze(e Expr) tinfo {
	switch n := e.(type) {
	case Epsilon:
		return tinfo{nullable: true}
	case Atom:
		var guard automata.Guard
		if n.Wild {
			guard = automata.GuardNotIn(n.Except...)
		} else {
			guard = automata.GuardLabel(n.Name)
		}
		g.positions = append(g.positions, tposition{guard: guard, back: n.Inverse})
		g.follow = append(g.follow, nil)
		p := len(g.positions) - 1
		return tinfo{first: []int{p}, last: []int{p}}
	case Concat:
		if len(n.Parts) == 0 {
			return tinfo{nullable: true}
		}
		acc := g.analyze(n.Parts[0])
		for _, part := range n.Parts[1:] {
			next := g.analyze(part)
			for _, l := range acc.last {
				g.follow[l] = append(g.follow[l], next.first...)
			}
			merged := tinfo{nullable: acc.nullable && next.nullable}
			merged.first = append(merged.first, acc.first...)
			if acc.nullable {
				merged.first = append(merged.first, next.first...)
			}
			merged.last = append(merged.last, next.last...)
			if next.nullable {
				merged.last = append(merged.last, acc.last...)
			}
			acc = merged
		}
		return acc
	case Union:
		var out tinfo
		for _, alt := range n.Alts {
			ai := g.analyze(alt)
			out.nullable = out.nullable || ai.nullable
			out.first = append(out.first, ai.first...)
			out.last = append(out.last, ai.last...)
		}
		return out
	case Star:
		si := g.analyze(n.Sub)
		for _, l := range si.last {
			g.follow[l] = append(g.follow[l], si.first...)
		}
		return tinfo{nullable: true, first: si.first, last: si.last}
	default:
		panic(fmt.Sprintf("twoway: unexpected %T after desugar", e))
	}
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
// evaluation stops with eval.ErrCanceled or eval.ErrBudgetExceeded — with
// explicit runtime options: the fan-out degree (output is identical at any
// parallelism) and runtime counters. It compiles a kernel per call; a caller that evaluates one query repeatedly
// compiles it once with Kernel and runs PairsKernel — or, to have the pairs
// as they are found rather than collected, the kernel's SweepAll.
func PairsMeterOpt(g *graph.Graph, e Expr, m *eval.Meter, opts Options) ([][2]int, error) {
	return PairsKernel(Kernel(g, e, opts.Counters), m, opts.Parallelism)
}

// PairsKernel evaluates the all-pairs semantics of a compiled 2RPQ kernel
// (see Kernel) through the runtime's all-sources driver: pairs arrive
// sources ascending, each source's targets ascending, so the output is
// lexicographically sorted by construction. Every pair is a result row,
// charged in that order, so a MaxRows budget trips on row MaxRows+1. It is
// the collecting face of that driver for the library API: the runs become
// index pairs here.
func PairsKernel(kern *pg.Kernel, m *eval.Meter, parallelism int) ([][2]int, error) {
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

// Check reports whether (src, dst) ∈ ⟦R⟧_G.
func Check(g *graph.Graph, e Expr, src, dst int) bool {
	for _, v := range ReachableFrom(g, e, src) {
		if v == dst {
			return true
		}
	}
	return false
}

// ReachableFrom returns all v with (src, v) ∈ ⟦R⟧_G, sorted.
func ReachableFrom(g *graph.Graph, e Expr, src int) []int {
	kern := Kernel(g, e, nil)
	vs, _ := kern.Sweep(src, kern.NewScratch(), nil, false) // nil meter: cannot fail
	return vs
}

// Witness returns one shortest two-way walk (as the visited node sequence —
// edges may be traversed in either direction, so the result is a node
// itinerary rather than a gpath.Path). ok is false when no walk exists. The
// walk is reconstructed from the kernel's BFS parent tree, so the choice
// among equal-length witnesses is deterministic.
func Witness(g *graph.Graph, e Expr, src, dst int) ([]int, bool) {
	kern := Kernel(g, e, nil)
	sem := kern.Semantics()
	dist, parent, _ := kern.BFS(src)
	best := -1
	for q := 0; q < sem.NumStates(); q++ {
		id := kern.ID(pg.State{Node: dst, State: q})
		if sem.Accepting(q) && dist[id] >= 0 && (best == -1 || dist[id] < dist[best]) {
			best = id
		}
	}
	if best == -1 {
		return nil, false
	}
	var seq []int
	for cur := best; cur != -1; cur = parent[cur] {
		seq = append(seq, kern.Unid(cur).Node)
	}
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq, true
}

// Parse parses the 2RPQ syntax: the RPQ syntax of package rpq plus a '~'
// prefix for inverse atoms (~a, ~_, ~!{a,b}).
func Parse(input string) (Expr, error) {
	p := &parser{src: input}
	p.next()
	if p.tok.kind == tEOF {
		return nil, p.errorf("empty expression")
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errorf("unexpected %s", p.tok)
	}
	return e, nil
}

// MustParse parses or panics.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type tkind int

const (
	tEOF tkind = iota
	tIdent
	tNumber
	tPipe
	tStar
	tPlus
	tQuest
	tLParen
	tRParen
	tLBrace
	tRBrace
	tComma
	tTilde
	tBangBrace
	tUnder
)

type tok struct {
	kind tkind
	text string
	pos  int
}

func (t tok) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type parser struct {
	src   string
	pos   int
	tok   tok
	depth int // groups open around the current token
	nest  int // groups and repetitions on the deepest path of the expression parsed last
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("twoway: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	for p.pos < len(p.src) && strings.ContainsRune(" \t\n\r", rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = tok{kind: tEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	single := map[byte]tkind{
		'|': tPipe, '*': tStar, '+': tPlus, '?': tQuest,
		'(': tLParen, ')': tRParen, '{': tLBrace, '}': tRBrace,
		',': tComma, '~': tTilde,
	}
	if k, ok := single[c]; ok {
		p.pos++
		p.tok = tok{k, string(c), start}
		return
	}
	switch {
	case c == '!' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '{':
		p.pos += 2
		p.tok = tok{tBangBrace, "!{", start}
	case c >= '0' && c <= '9':
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		p.tok = tok{tNumber, p.src[start:p.pos], start}
	case c == '_' || unicode.IsLetter(rune(c)) || c >= 0x80:
		for p.pos < len(p.src) {
			r := rune(p.src[p.pos])
			if r < 0x80 && r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			p.pos++
		}
		text := p.src[start:p.pos]
		if text == "_" {
			p.tok = tok{tUnder, "_", start}
			return
		}
		p.tok = tok{tIdent, text, start}
	default:
		p.tok = tok{tIdent, string(c), start}
		p.pos++
	}
}

func (p *parser) parseUnion() (Expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts, nest := []Expr{first}, p.nest
	for p.tok.kind == tPipe {
		p.next()
		e, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts, nest = append(alts, e), max(nest, p.nest)
	}
	p.nest = nest
	return Alt(alts...), nil
}

func (p *parser) parseConcat() (Expr, error) {
	var parts []Expr
	nest := 0
	for {
		switch p.tok.kind {
		case tIdent, tUnder, tBangBrace, tLParen, tTilde:
			e, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			parts, nest = append(parts, e), max(nest, p.nest)
		default:
			if len(parts) == 0 {
				return nil, p.errorf("expected expression, got %s", p.tok)
			}
			p.nest = nest
			return Seq(parts...), nil
		}
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for nest := p.nest; ; nest++ {
		if nest > rpq.MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", nest, rpq.MaxNesting)
		}
		p.nest = nest
		switch p.tok.kind {
		case tStar:
			e = Kleene(e)
			p.next()
		case tPlus:
			e = PlusOf(e)
			p.next()
		case tQuest:
			e = Repeat{Sub: e, Min: 0, Max: 1}
			p.next()
		case tLBrace:
			p.next()
			if p.tok.kind != tNumber {
				return nil, p.errorf("expected repetition count, got %s", p.tok)
			}
			min := atoi(p.tok.text)
			p.next()
			max := min
			if p.tok.kind == tComma {
				p.next()
				switch p.tok.kind {
				case tNumber:
					max = atoi(p.tok.text)
					p.next()
				case tRBrace:
					max = -1
				default:
					return nil, p.errorf("expected upper bound or '}', got %s", p.tok)
				}
			}
			if p.tok.kind != tRBrace {
				return nil, p.errorf("expected '}', got %s", p.tok)
			}
			if max >= 0 && max < min {
				return nil, p.errorf("invalid repetition {%d,%d}", min, max)
			}
			p.next()
			e = Repeat{Sub: e, Min: min, Max: max}
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	inverse := false
	if p.tok.kind == tTilde {
		inverse = true
		p.next()
	}
	switch p.tok.kind {
	case tIdent:
		a := Atom{Name: p.tok.text, Inverse: inverse}
		p.next()
		p.nest = 0
		return a, nil
	case tUnder:
		p.next()
		p.nest = 0
		return Atom{Wild: true, Inverse: inverse}, nil
	case tBangBrace:
		p.next()
		var set []string
		for {
			if p.tok.kind != tIdent {
				return nil, p.errorf("expected label in wildcard set, got %s", p.tok)
			}
			set = append(set, p.tok.text)
			p.next()
			if p.tok.kind == tComma {
				p.next()
				continue
			}
			break
		}
		if p.tok.kind != tRBrace {
			return nil, p.errorf("expected '}', got %s", p.tok)
		}
		p.next()
		p.nest = 0
		return Atom{Wild: true, Except: set, Inverse: inverse}, nil
	case tLParen:
		if inverse {
			return nil, p.errorf("'~' applies to atoms, not groups")
		}
		if p.depth++; p.depth > rpq.MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", p.depth, rpq.MaxNesting)
		}
		p.next()
		if p.tok.kind == tRParen {
			p.next()
			p.depth--
			p.nest = 1
			return Epsilon{}, nil
		}
		e, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tRParen {
			return nil, p.errorf("expected ')', got %s", p.tok)
		}
		p.next()
		p.depth--
		p.nest++
		return e, nil
	default:
		return nil, p.errorf("expected atom, got %s", p.tok)
	}
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}
