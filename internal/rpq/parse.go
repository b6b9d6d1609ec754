package rpq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
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
func Parse(input string) (Expr, error) {
	p := &parser{src: input}
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

// MaxNesting bounds how deep a served query text may nest: how many groups
// and repetitions lie on one path from the root of its syntax tree to a
// leaf — parentheses and postfix operators in the RPQ-family parsers (rpq,
// lrpq, twoway), groups, captures and postfix operators in spanner
// formulas. Each level is a frame of every recursive pass over the tree,
// parsing included, so a 1 MB body of '(' or of '+' would cost hundreds of
// megabytes of goroutine stack. A parser refuses a group that opens past
// the bound before descending into it, and a repetition that wraps a
// subtree already at the bound.
const MaxNesting = 1000

// MustParse parses or panics; for tests and examples with known-good inputs.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
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

type parser struct {
	src   string
	pos   int
	tok   token
	depth int // groups open around the current token
	nest  int // groups and repetitions on the deepest path of the expression parsed last
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("rpq: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.pos]
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

func (p *parser) parseUnion() (Expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts, nest := []Expr{first}, p.nest
	for p.tok.kind == tokPipe {
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
		case tokLabel, tokUnder, tokBangBrace, tokLParen:
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
		if nest > MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", nest, MaxNesting)
		}
		p.nest = nest
		switch p.tok.kind {
		case tokStar:
			e = Kleene(e)
			p.next()
		case tokPlus:
			e = PlusOf(e)
			p.next()
		case tokQuest:
			e = Opt(e)
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
			e = Between(e, min, max)
		default:
			return e, nil
		}
	}
}

func (p *parser) parseAtom() (Expr, error) {
	switch p.tok.kind {
	case tokLabel:
		if p.tok.text == "!" {
			return nil, p.errorf("'!' must be followed by '{'")
		}
		e := L(p.tok.text)
		p.next()
		p.nest = 0
		return e, nil
	case tokUnder:
		p.next()
		p.nest = 0
		return Any(), nil
	case tokBangBrace:
		p.next()
		var set []string
		for {
			if p.tok.kind != tokLabel {
				return nil, p.errorf("expected label in wildcard set, got %s", p.tok)
			}
			set = append(set, p.tok.text)
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
		p.nest = 0
		return Not(set...), nil
	case tokLParen:
		if p.depth++; p.depth > MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", p.depth, MaxNesting)
		}
		p.next()
		if p.tok.kind == tokRParen { // "()" is ε
			p.next()
			p.depth--
			p.nest = 1
			return Eps(), nil
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
	default:
		return nil, p.errorf("expected expression, got %s", p.tok)
	}
}
