package rpq

import (
	"fmt"
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
// leaf, in every dialect Read reads. Each level is a frame of every
// recursive pass over the tree, reading included, so a 1 MB body of '(' or
// of '+' would cost hundreds of megabytes of goroutine stack. The reader
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
// ℓ-RPQs. The lexer and the printing of atoms are shared, and the text is
// read by Read; what a language adds is its atoms: the marks it allows
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
	e, _, err := s.read(input, 0, TokEnd)
	return e, err
}

// read reads src from offset at up to the token stop, and returns the
// offset of that token.
func (s *Syntax[L]) read(src string, at int, stop Token) (automata.Expr[L], int, error) {
	p := &parser[L]{lexer: lexer{src: src, pos: at, prefix: s.Prefix, suffix: s.Suffix}, syntax: s}
	p.next()
	e, err := Read[L](p, stop)
	return e, p.tok.pos, err
}

// ParseIn reads an RPQ in place, from offset at of src up to the ')' it
// did not open or the end of src, and returns the offset where it stopped;
// a caller that brackets RPQs in a syntax of its own reads them so.
func ParseIn(src string, at int) (Expr, int, error) { return syntax.read(src, at, TokClose) }

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

// parser is the lexer as the reader drives it, with the language's atoms.
type parser[L automata.Language] struct {
	lexer
	syntax *Syntax[L]
}

func (p *parser[L]) Peek() Token {
	switch p.tok.kind {
	case tokEOF:
		return TokEnd
	case tokLabel, tokUnder, tokBangBrace, tokPrefix:
		return TokAtom
	case tokLParen:
		return TokOpen
	case tokRParen:
		return TokClose
	case tokPipe:
		return TokOr
	case tokStar:
		return TokStar
	case tokPlus:
		return TokPlus
	case tokQuest:
		return TokQuest
	case tokLBrace:
		return TokCount
	case tokDot:
		return TokSep
	}
	return TokOther
}

func (p *parser[L]) Skip() { p.next() }

func (p *parser[L]) Count() (int, int, error) {
	min, max, n, err := ScanCount(p.src[p.tok.pos:])
	if err != nil {
		return 0, 0, p.Errorf("%v", err)
	}
	p.pos = p.tok.pos + n
	p.next()
	return min, max, nil
}

// Empty: "()" is ε, and no other empty row is.
func (p *parser[L]) Empty(group bool) bool { return group }

func (p *parser[L]) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: parse error at offset %d: "+format, append([]any{p.syntax.Name, p.tok.pos}, args...)...)
}

func (p *parser[L]) Got() string { return p.tok.String() }

func (p *parser[L]) Atom(*Reader[L]) (automata.Expr[L], error) {
	var a Base
	if p.tok.kind == tokPrefix {
		a.Prefixed = true
		p.next()
	}
	switch p.tok.kind {
	case tokLabel:
		if p.tok.text == "!" {
			return nil, p.Errorf("'!' must be followed by '{'")
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
				return nil, p.Errorf("expected label in wildcard set, got %s", p.tok)
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
			return nil, p.Errorf("expected '}' closing wildcard set, got %s", p.tok)
		}
		p.next()
	case tokLParen:
		return nil, p.Errorf("'%c' applies to atoms, not groups", p.syntax.Prefix)
	default:
		return nil, p.Errorf("expected expression, got %s", p.tok)
	}
	if p.tok.kind == tokSuffix {
		p.next()
		if p.tok.kind != tokLabel {
			return nil, p.Errorf("expected variable name after '%c', got %s", p.syntax.Suffix, p.tok)
		}
		a.Suffix = p.tok.text
		p.next()
	}
	return p.syntax.Atom(a), nil
}
