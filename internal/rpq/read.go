package rpq

import (
	"errors"
	"fmt"
	"strconv"

	"graphquery/internal/automata"
)

// Every regular-expression dialect of the tree — RPQs, 2RPQs, ℓ-RPQs,
// dl-RPQs, GQL and Cypher patterns, spanner formulas — is one grammar over
// its own atoms:
//
//	union   := concat (TokOr concat)*
//	concat  := postfix+                 (TokSep tokens between parts are skipped)
//	postfix := factor (TokStar | TokPlus | TokQuest | TokCount)*
//	factor  := TokOpen union TokClose | atom
//
// Read reads it, and counts both bounds a served text is held to in one
// place: groups and repetitions nested past MaxNesting, and rows of more
// than MaxPositions parts (PartsError). A dialect brings a Lexer: what its
// tokens are, and how its atoms are read.

// Token is the kind of the token ahead, as a dialect's lexer classifies it.
type Token int

const (
	TokEnd   Token = iota // the end of the text
	TokAtom               // the start of an atom: the lexer reads it (Lexer.Atom)
	TokOpen               // the bracket that opens a group
	TokClose              // the bracket that closes a group
	TokOr                 // the separator of a union's alternatives
	TokStar               // postfix *
	TokPlus               // postfix +
	TokQuest              // postfix ?
	TokCount              // the '{' of a postfix count {n}, {n,} or {n,m} (Lexer.Count)
	TokSep                // an explicit concatenation separator, skipped (rpq's '.')
	TokOther              // anything else: it ends the row it follows
)

// Lexer is what a dialect brings to Read.
type Lexer[L automata.Language] interface {
	// Peek classifies the token ahead.
	Peek() Token
	// Skip consumes the token ahead.
	Skip()
	// Atom reads the atom ahead, Peek having returned TokAtom. A construct
	// with a body of its own — a gql group with a WHERE, a Cypher union
	// group, a spanner capture — reads its body with r.Nested.
	Atom(r *Reader[L]) (automata.Expr[L], error)
	// Count reads the count ahead, Peek having returned TokCount, with
	// ScanCount.
	Count() (min, max int, err error)
	// Empty reports whether a concatenation of no parts is ε here rather
	// than refused; group says the empty row is the whole of an TokOpen…TokClose
	// group, "()".
	Empty(group bool) bool
	// Errorf returns a parse error at the offset of the token ahead. It
	// wraps what %w formats.
	Errorf(format string, args ...any) error
	// Got describes the token ahead for an error message.
	Got() string
}

// Reader reads one text for a lexer. It holds the two counts the reader
// keeps: the constructs open around the token ahead, and the groups and
// repetitions on the deepest path of what it read last.
type Reader[L automata.Language] struct {
	lex   Lexer[L]
	depth int // groups open around the token ahead
	nest  int // groups and repetitions on the deepest path of the expression read last
	// bare says the expression read last is one construct that prints
	// its own brackets (a spanner capture): a group around it alone adds
	// no level.
	bare bool
}

// Read reads a union from lex and leaves the token after it unread; that
// token must be stop — TokEnd for a whole text, TokClose for a body read in
// place inside brackets the text around it opened.
func Read[L automata.Language](lex Lexer[L], stop Token) (automata.Expr[L], error) {
	r := &Reader[L]{lex: lex}
	alts, err := r.union()
	if err != nil {
		return nil, err
	}
	if lex.Peek() != stop {
		return nil, lex.Errorf("unexpected %s", lex.Got())
	}
	return automata.Alt(alts...), nil
}

// Enter opens one more construct around the token ahead — a group, or a
// dialect's own recursion such as a gql condition's NOT — refusing it past
// MaxNesting; Leave closes it.
func (r *Reader[L]) Enter() error {
	if r.depth++; r.depth > MaxNesting {
		return r.tooDeep(r.depth)
	}
	return nil
}

// Leave closes what Enter opened.
func (r *Reader[L]) Leave() { r.depth-- }

func (r *Reader[L]) tooDeep(n int) error {
	return r.lex.Errorf("groups and repetitions nest %d deep; the bound is %d", n, MaxNesting)
}

// parts refuses a row of n parts past MaxPositions.
func (r *Reader[L]) parts(n int) error {
	if err := PartsError(n); err != nil {
		return r.lex.Errorf("%w", err)
	}
	return nil
}

// Nested reads the body of a group, the opening bracket read, and then end,
// which reads its closing syntax. It returns the body's alternatives. The
// group counts as levels of nesting: 1 for a group, 2 for a construct that
// prints inside a group of its own — a spanner capture, x{…}, prints as
// (x{…}), and a group around nothing but such a construct adds no level,
// so a text counts at least as deep as what it prints as.
func (r *Reader[L]) Nested(levels int, end func() error) ([]automata.Expr[L], error) {
	if err := r.Enter(); err != nil {
		return nil, err
	}
	alts, nest, bare := []automata.Expr[L]{automata.Epsilon[L]{}}, 0, false
	if r.lex.Peek() != TokClose || !r.lex.Empty(true) {
		var err error
		if alts, err = r.union(); err != nil {
			return nil, err
		}
		nest, bare = r.nest, r.bare
	}
	if err := end(); err != nil {
		return nil, err
	}
	r.Leave()
	if levels == 1 && bare {
		levels = 0
	}
	r.nest, r.bare = nest+levels, levels > 1
	return alts, nil
}

func (r *Reader[L]) union() ([]automata.Expr[L], error) {
	var alts []automata.Expr[L]
	nest := 0
	for {
		e, err := r.concat()
		if err != nil {
			return nil, err
		}
		alts, nest = append(alts, e), max(nest, r.nest)
		if err := r.parts(len(alts)); err != nil {
			return nil, err
		}
		if r.lex.Peek() != TokOr {
			r.nest, r.bare = nest, r.bare && len(alts) == 1
			return alts, nil
		}
		r.lex.Skip()
	}
}

func (r *Reader[L]) concat() (automata.Expr[L], error) {
	var parts []automata.Expr[L]
	nest, bare := 0, false
	for {
		switch r.lex.Peek() {
		case TokSep:
			r.lex.Skip()
		case TokAtom, TokOpen:
			e, err := r.postfix()
			if err != nil {
				return nil, err
			}
			parts, nest, bare = append(parts, e), max(nest, r.nest), r.bare
			if err := r.parts(len(parts)); err != nil {
				return nil, err
			}
		default:
			if len(parts) == 0 && !r.lex.Empty(false) {
				return nil, r.lex.Errorf("expected expression, got %s", r.lex.Got())
			}
			r.nest, r.bare = nest, bare && len(parts) == 1
			return automata.Seq(parts...), nil
		}
	}
}

// postfix reads a factor and its repetitions. Each repetition is a level
// of nesting: one that wraps a subtree already at MaxNesting is refused.
func (r *Reader[L]) postfix() (automata.Expr[L], error) {
	e, err := r.factor()
	if err != nil {
		return nil, err
	}
	for nest := r.nest; ; nest++ {
		if nest > MaxNesting {
			return nil, r.tooDeep(nest)
		}
		r.nest = nest
		switch r.lex.Peek() {
		case TokStar:
			r.lex.Skip()
			e = automata.Star[L]{Sub: e}
		case TokPlus:
			r.lex.Skip()
			e = automata.Repeat[L]{Sub: e, Min: 1, Max: -1}
		case TokQuest:
			r.lex.Skip()
			e = automata.Repeat[L]{Sub: e, Min: 0, Max: 1}
		case TokCount:
			min, max, err := r.lex.Count()
			if err != nil {
				return nil, err
			}
			e = automata.Repeat[L]{Sub: e, Min: min, Max: max}
		default:
			return e, nil
		}
		r.bare = false
	}
}

func (r *Reader[L]) factor() (automata.Expr[L], error) {
	if r.lex.Peek() != TokOpen {
		r.nest, r.bare = 0, false // a leaf's; a construct with a body counts its own
		return r.lex.Atom(r)
	}
	r.lex.Skip()
	alts, err := r.Nested(1, func() error {
		if r.lex.Peek() != TokClose {
			var l L
			return r.lex.Errorf("expected %q, got %s", l.Notation().Close, r.lex.Got())
		}
		r.lex.Skip()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return automata.Alt(alts...), nil
}

// ScanCount reads a repetition count, {n}, {n,} or {n,m}, from the front
// of text, which starts at its '{'; blanks may stand between its tokens.
// It returns the bounds — max < 0 for {n,} — and the bytes it read. A
// count is digits only; one past the range of int is clamped to it, as
// Positions clamps it again.
func ScanCount(text string) (min, max, n int, err error) {
	n = 1
	number := func() (int, bool) {
		n = skipBlanks(text, n)
		start := n
		for n < len(text) && text[n] >= '0' && text[n] <= '9' {
			n++
		}
		v, _ := strconv.Atoi(text[start:n]) // clamped past the range of int
		return v, n > start
	}
	min, ok := number()
	if !ok {
		return 0, 0, n, errors.New("expected a repetition count after '{'")
	}
	max = min
	if n = skipBlanks(text, n); n < len(text) && text[n] == ',' {
		n++
		if n = skipBlanks(text, n); n < len(text) && text[n] == '}' {
			max = -1
		} else if max, ok = number(); !ok {
			return 0, 0, n, errors.New("expected an upper bound or '}' in a repetition count")
		}
	}
	if n = skipBlanks(text, n); n >= len(text) || text[n] != '}' {
		return 0, 0, n, errors.New("expected '}' closing a repetition count")
	}
	if max >= 0 && max < min {
		return 0, 0, n, fmt.Errorf("invalid repetition {%d,%d}", min, max)
	}
	return min, max, n + 1, nil
}

// skipBlanks returns the offset of the first byte at or after i of text
// that is not a blank.
func skipBlanks(text string, i int) int {
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
		i++
	}
	return i
}
