package rpq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"graphquery/internal/automata"
)

// Parse parses the textual RPQ syntax:
//
//	expr    := term ('|' term)*                 disjunction
//	term    := factor factor*                   concatenation (juxtaposition,
//	                                            '.' optionally allowed)
//	factor  := atom ('*' | '+' | '?' | '{' n (',' m?)? '}')*
//	atom    := label | '_' | '!{' labels '}' | '(' expr? ')' | quoted
//
// Labels are identifiers ([A-Za-z_][A-Za-z0-9_]*, Unicode letters allowed)
// or single-quoted strings. '()' denotes ε. Examples:
//
//	Transfer*
//	(Transfer Transfer?)        -- paths of length 1–2
//	a{2,5} | !{a,b} _*
func Parse(input string) (Expr, error) { return syntax.Parse(input) }

// syntax is the RPQ's: its atoms are the base atoms themselves.
var syntax = Syntax[lang]{Name: "rpq", Atom: func(a Base) Expr {
	if a.Wild {
		return Not(a.Except...)
	}
	return L(a.Name)
}}

// MaxNesting bounds how deep a served query text may nest: how many groups
// and repetitions lie on one path from the root of its syntax tree to a
// leaf — parentheses and postfix operators in the RPQ-family parsers (rpq,
// lrpq, twoway), braces and postfix operators in dl-RPQs, groups, captures
// and postfix operators in spanner formulas. Each level is a frame of every
// recursive pass over the tree, parsing included, so a 1 MB body of '(' or
// of '+' would cost hundreds of megabytes of goroutine stack. A parser
// refuses a group that opens past the bound before descending into it, and
// a repetition that wraps a subtree already at the bound.
const MaxNesting = 1000

// MustParse parses or panics; for tests and examples with known-good inputs.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// Syntax is a language written in the RPQ text syntax — RPQs, 2RPQs and
// ℓ-RPQs. The grammar, its lexer, its nesting bound and the printing of
// atoms are shared; what a language adds is its atoms: the marks it allows
// around a base atom (a label, '_' or '!{…}'), and the node it builds from
// what was read. A mark character a language does not define is a
// one-character label, as any other punctuation is.
type Syntax[L automata.Language] struct {
	Name   string // names the language in parse errors
	Prefix byte   // a mark that may precede an atom ('~' of 2RPQs); 0 for none
	Suffix byte   // a mark that may follow an atom, then a name ('^z' of ℓ-RPQs); 0 for none
	Atom   func(Base) automata.Expr[L]
}

// Base is an atom as the shared parser reads it.
type Base struct {
	Name     string   // the label, when Wild is false
	Wild     bool     // the wildcard !Except; "_" when Except is empty
	Except   []string // as written
	Prefixed bool     // the language's Prefix mark preceded the atom
	Suffix   string   // the name after the language's Suffix mark; "" when absent
}

// Parse parses input in the language's text syntax.
func (s *Syntax[L]) Parse(input string) (automata.Expr[L], error) {
	p := &parser[L]{lexer: lexer{src: input, prefix: s.Prefix, suffix: s.Suffix}, syntax: s}
	p.next()
	if p.tok.kind == tokEOF {
		return nil, p.errorf("empty expression")
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s", p.tok)
	}
	return e, nil
}

// Format prints a base atom the way Parse reads it back: labels quoted
// when they are not identifiers, and the language's marks around it.
func (s *Syntax[L]) Format(a Base) string {
	text := Label{Name: a.Name}.String()
	if a.Wild {
		text = NotIn{Set: a.Except}.String()
	}
	if a.Prefixed {
		text = string(s.Prefix) + text
	}
	if a.Suffix != "" {
		// Quoted like a label when it is not a plain identifier: the mark
		// reads the same token a label is.
		text += string(s.Suffix) + Label{Name: a.Suffix}.String()
	}
	return text
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokLabel
	tokPipe
	tokStar
	tokPlus
	tokQuest
	tokDot
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokComma
	tokBangBrace // "!{"
	tokUnder     // "_"
	tokNumber
	tokPrefix // the language's Prefix mark
	tokSuffix // the language's Suffix mark
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer reads the tokens of the RPQ text syntax, with a language's two
// optional mark characters.
type lexer struct {
	src            string
	pos            int
	tok            token
	prefix, suffix byte
}

func (p *lexer) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	if c != 0 && (c == p.prefix || c == p.suffix) {
		kind := tokPrefix
		if c == p.suffix {
			kind = tokSuffix
		}
		p.pos++
		p.tok = token{kind, string(c), start}
		return
	}
	switch c {
	case '|':
		p.pos++
		p.tok = token{tokPipe, "|", start}
	case '*':
		p.pos++
		p.tok = token{tokStar, "*", start}
	case '+':
		p.pos++
		p.tok = token{tokPlus, "+", start}
	case '?':
		p.pos++
		p.tok = token{tokQuest, "?", start}
	case '.':
		p.pos++
		p.tok = token{tokDot, ".", start}
	case '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case '{':
		p.pos++
		p.tok = token{tokLBrace, "{", start}
	case '}':
		p.pos++
		p.tok = token{tokRBrace, "}", start}
	case ',':
		p.pos++
		p.tok = token{tokComma, ",", start}
	case '!':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '{' {
			p.pos += 2
			p.tok = token{tokBangBrace, "!{", start}
			return
		}
		p.tok = token{tokLabel, "!", start} // lexed; parser will reject
		p.pos++
	case '\'':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '\'' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.tok = token{tokLabel, b.String(), start}
			return
		}
		p.pos++ // closing quote
		p.tok = token{tokLabel, b.String(), start}
	default:
		if c >= '0' && c <= '9' {
			for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
				p.pos++
			}
			p.tok = token{tokNumber, p.src[start:p.pos], start}
			return
		}
		if isIdentStart(rune(c)) || c >= 0x80 {
			for p.pos < len(p.src) {
				r := rune(p.src[p.pos])
				if r < 0x80 && !isIdentPart(r) {
					break
				}
				if r >= 0x80 {
					// accept any non-ASCII byte as part of an identifier
					p.pos++
					continue
				}
				p.pos++
			}
			text := p.src[start:p.pos]
			if text == "_" {
				p.tok = token{tokUnder, "_", start}
				return
			}
			p.tok = token{tokLabel, text, start}
			return
		}
		p.tok = token{tokLabel, string(c), start}
		p.pos++
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type parser[L automata.Language] struct {
	lexer
	syntax *Syntax[L]
	depth  int // groups open around the current token
	nest   int // groups and repetitions on the deepest path of the expression parsed last
}

func (p *parser[L]) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: parse error at offset %d: %s", p.syntax.Name, p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser[L]) parseUnion() (automata.Expr[L], error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts, nest := []automata.Expr[L]{first}, p.nest
	for p.tok.kind == tokPipe {
		p.next()
		e, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts, nest = append(alts, e), max(nest, p.nest)
	}
	p.nest = nest
	return automata.Alt(alts...), nil
}

func (p *parser[L]) parseConcat() (automata.Expr[L], error) {
	var parts []automata.Expr[L]
	nest := 0
	for {
		switch p.tok.kind {
		case tokLabel, tokUnder, tokBangBrace, tokLParen, tokPrefix:
			e, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			parts, nest = append(parts, e), max(nest, p.nest)
		case tokDot:
			p.next() // optional explicit concatenation dot
		default:
			if len(parts) == 0 {
				return nil, p.errorf("expected expression, got %s", p.tok)
			}
			p.nest = nest
			return automata.Seq(parts...), nil
		}
	}
}

func (p *parser[L]) parsePostfix() (automata.Expr[L], error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for nest := p.nest; ; nest++ {
		if nest > MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", nest, MaxNesting)
		}
		p.nest = nest
		switch p.tok.kind {
		case tokStar:
			e = automata.Star[L]{Sub: e}
			p.next()
		case tokPlus:
			e = automata.Repeat[L]{Sub: e, Min: 1, Max: -1}
			p.next()
		case tokQuest:
			e = automata.Repeat[L]{Sub: e, Min: 0, Max: 1}
			p.next()
		case tokLBrace:
			p.next()
			if p.tok.kind != tokNumber {
				return nil, p.errorf("expected repetition count, got %s", p.tok)
			}
			min, _ := strconv.Atoi(p.tok.text)
			p.next()
			max := min
			if p.tok.kind == tokComma {
				p.next()
				switch p.tok.kind {
				case tokNumber:
					max, _ = strconv.Atoi(p.tok.text)
					p.next()
				case tokRBrace:
					max = -1
				default:
					return nil, p.errorf("expected upper bound or '}', got %s", p.tok)
				}
			}
			if p.tok.kind != tokRBrace {
				return nil, p.errorf("expected '}', got %s", p.tok)
			}
			if max >= 0 && max < min {
				return nil, p.errorf("invalid repetition {%d,%d}", min, max)
			}
			p.next()
			e = automata.Repeat[L]{Sub: e, Min: min, Max: max}
		default:
			return e, nil
		}
	}
}

func (p *parser[L]) parseAtom() (automata.Expr[L], error) {
	var a Base
	if p.tok.kind == tokPrefix {
		a.Prefixed = true
		p.next()
	}
	switch p.tok.kind {
	case tokLabel:
		if p.tok.text == "!" {
			return nil, p.errorf("'!' must be followed by '{'")
		}
		a.Name = p.tok.text
		p.next()
	case tokUnder:
		a.Wild = true
		p.next()
	case tokBangBrace:
		a.Wild = true
		p.next()
		for {
			if p.tok.kind != tokLabel {
				return nil, p.errorf("expected label in wildcard set, got %s", p.tok)
			}
			a.Except = append(a.Except, p.tok.text)
			p.next()
			if p.tok.kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.tok.kind != tokRBrace {
			return nil, p.errorf("expected '}' closing wildcard set, got %s", p.tok)
		}
		p.next()
	case tokLParen:
		if a.Prefixed {
			return nil, p.errorf("'%c' applies to atoms, not groups", p.syntax.Prefix)
		}
		return p.parseGroup()
	default:
		return nil, p.errorf("expected expression, got %s", p.tok)
	}
	if p.tok.kind == tokSuffix {
		p.next()
		if p.tok.kind != tokLabel {
			return nil, p.errorf("expected variable name after '%c', got %s", p.syntax.Suffix, p.tok)
		}
		a.Suffix = p.tok.text
		p.next()
	}
	p.nest = 0
	return p.syntax.Atom(a), nil
}

// parseGroup parses '(' expr? ')', the current token being '('.
func (p *parser[L]) parseGroup() (automata.Expr[L], error) {
	if p.depth++; p.depth > MaxNesting {
		return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", p.depth, MaxNesting)
	}
	p.next()
	if p.tok.kind == tokRParen { // "()" is ε
		p.next()
		p.depth--
		p.nest = 1
		return automata.Epsilon[L]{}, nil
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokRParen {
		return nil, p.errorf("expected ')', got %s", p.tok)
	}
	p.next()
	p.depth--
	p.nest++
	return e, nil
}
