package lrpq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"graphquery/internal/rpq"
)

// Parse parses the textual ℓ-RPQ syntax, which extends the RPQ syntax of
// package rpq with variable annotations on atoms:
//
//	(Transfer^z)* isBlocked
//	(a a^z | a^z a)*
//	_^z  !{a,b}^w
//
// An annotation ^z may follow a label, '_', or a '!{…}' wildcard.
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
	tPipe
	tStar
	tPlus
	tQuest
	tDot
	tLParen
	tRParen
	tLBrace
	tRBrace
	tComma
	tBangBrace
	tUnder
	tNumber
	tCaret
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
	return fmt.Errorf("lrpq: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
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
		'|': tPipe, '*': tStar, '+': tPlus, '?': tQuest, '.': tDot,
		'(': tLParen, ')': tRParen, '{': tLBrace, '}': tRBrace,
		',': tComma, '^': tCaret,
	}
	if k, ok := single[c]; ok {
		p.pos++
		p.tok = tok{k, string(c), start}
		return
	}
	switch {
	case c == '!':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '{' {
			p.pos += 2
			p.tok = tok{tBangBrace, "!{", start}
			return
		}
		p.pos++
		p.tok = tok{tIdent, "!", start}
	case c == '\'':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '\'' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos < len(p.src) {
			p.pos++
		}
		p.tok = tok{tIdent, b.String(), start}
	case c >= '0' && c <= '9':
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		p.tok = tok{tNumber, p.src[start:p.pos], start}
	default:
		if c == '_' || unicode.IsLetter(rune(c)) || c >= 0x80 {
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
			return
		}
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
		case tIdent, tUnder, tBangBrace, tLParen:
			e, err := p.parsePostfix()
			if err != nil {
				return nil, err
			}
			parts, nest = append(parts, e), max(nest, p.nest)
		case tDot:
			p.next()
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
			e = Opt(e)
			p.next()
		case tLBrace:
			p.next()
			if p.tok.kind != tNumber {
				return nil, p.errorf("expected repetition count, got %s", p.tok)
			}
			min, _ := strconv.Atoi(p.tok.text)
			p.next()
			max := min
			if p.tok.kind == tComma {
				p.next()
				switch p.tok.kind {
				case tNumber:
					max, _ = strconv.Atoi(p.tok.text)
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

// parseVarSuffix consumes an optional ^var suffix.
func (p *parser) parseVarSuffix() (string, error) {
	if p.tok.kind != tCaret {
		return "", nil
	}
	p.next()
	if p.tok.kind != tIdent {
		return "", p.errorf("expected variable name after '^', got %s", p.tok)
	}
	v := p.tok.text
	p.next()
	return v, nil
}

func (p *parser) parseAtom() (Expr, error) {
	switch p.tok.kind {
	case tIdent:
		if p.tok.text == "!" {
			return nil, p.errorf("'!' must be followed by '{'")
		}
		name := p.tok.text
		p.next()
		v, err := p.parseVarSuffix()
		if err != nil {
			return nil, err
		}
		p.nest = 0
		return Atom{Name: name, Var: v}, nil
	case tUnder:
		p.next()
		v, err := p.parseVarSuffix()
		if err != nil {
			return nil, err
		}
		p.nest = 0
		return Atom{Wild: true, Var: v}, nil
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
			return nil, p.errorf("expected '}' closing wildcard set, got %s", p.tok)
		}
		p.next()
		v, err := p.parseVarSuffix()
		if err != nil {
			return nil, err
		}
		p.nest = 0
		return Atom{Wild: true, Except: set, Var: v}, nil
	case tLParen:
		if p.depth++; p.depth > rpq.MaxNesting {
			return nil, p.errorf("groups and repetitions nest %d deep; the bound is %d", p.depth, rpq.MaxNesting)
		}
		p.next()
		if p.tok.kind == tRParen {
			p.next()
			p.depth--
			p.nest = 1
			return Eps(), nil
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
		return nil, p.errorf("expected expression, got %s", p.tok)
	}
}
