package dlrpq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// Parse parses the textual dl-RPQ syntax. Atoms are written in GQL-flavored
// brackets — round for nodes, square for edges:
//
//	(a)  (a^z)  ()  (_^z)  (!{a,b})        node atoms
//	[a]  [a^z]  []  [_^z]  [!{a,b}]        edge atoms
//	(x := date)  (date > x)  (amount < 4500000)  ('owner' = 'Megan')
//
// and combined with | (union), juxtaposition (concatenation), postfix
// * + ? {n} {n,m} {n,}, and {…} for grouping (round brackets are taken by
// node atoms). Example 21's node-increasing-dates expression is written
//
//	(a^z)(x := date) { [_](a^z)(date > x)(x := date) }*
func Parse(input string) (Expr, error) {
	p := &parser{src: input}
	p.next()
	return rpq.Read[lang](p, rpq.TokEnd)
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
	tString
	tPipe
	tStar
	tPlus
	tQuest
	tLParen
	tRParen
	tLBrack
	tRBrack
	tLBrace
	tRBrace
	tComma
	tCaret
	tAssign // :=
	tOp     // = != < > <= >=
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

// parser is the dl-RPQ lexer, read by rpq.Read: its atoms are the
// bracketed (…) and […] and "eps", its groups are braces, and a brace
// followed by a number opens a count instead.
type parser struct {
	src  string
	pos  int
	tok  tok
	save []tok // pushback stack for one-token lookahead
}

func (p *parser) Errorf(format string, args ...any) error {
	return fmt.Errorf("dlrpq: parse error at offset %d: "+format, append([]any{p.tok.pos}, args...)...)
}

func (p *parser) Got() string { return p.tok.String() }

func (p *parser) Skip() { p.next() }

func (p *parser) Empty(bool) bool { return false }

func (p *parser) Peek() rpq.Token {
	switch p.tok.kind {
	case tEOF:
		return rpq.TokEnd
	case tIdent, tLParen, tLBrack:
		return rpq.TokAtom
	case tLBrace:
		if next := p.peek(); next.kind == tNumber && next.text[0] != '-' {
			return rpq.TokCount
		}
		return rpq.TokOpen
	case tRBrace:
		return rpq.TokClose
	case tPipe:
		return rpq.TokOr
	case tStar:
		return rpq.TokStar
	case tPlus:
		return rpq.TokPlus
	case tQuest:
		return rpq.TokQuest
	}
	return rpq.TokOther
}

func (p *parser) Count() (int, int, error) {
	min, max, n, err := rpq.ScanCount(p.src[p.tok.pos:])
	if err != nil {
		return 0, 0, p.Errorf("%v", err)
	}
	p.pos, p.save = p.tok.pos+n, nil
	p.next()
	return min, max, nil
}

func (p *parser) Atom(*rpq.Reader[lang]) (Expr, error) {
	switch p.tok.kind {
	case tIdent:
		if p.tok.text != "eps" {
			return nil, p.Errorf("bare label %q: node atoms need (…), edge atoms […]", p.tok.text)
		}
		p.next()
		return Epsilon{}, nil
	case tLBrack:
		p.next()
		return p.parseAtomContent(true, tRBrack)
	default:
		p.next()
		return p.parseAtomContent(false, tRParen)
	}
}

func (p *parser) next() {
	if n := len(p.save); n > 0 {
		p.tok = p.save[n-1]
		p.save = p.save[:n-1]
		return
	}
	for p.pos < len(p.src) && strings.ContainsRune(" \t\n\r", rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = tok{kind: tEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	two := ""
	if p.pos+1 < len(p.src) {
		two = p.src[p.pos : p.pos+2]
	}
	switch {
	case two == ":=":
		p.pos += 2
		p.tok = tok{tAssign, ":=", start}
		return
	case two == "!=" || two == "<>" || two == "<=" || two == ">=":
		p.pos += 2
		p.tok = tok{tOp, two, start}
		return
	case two == "!{":
		p.pos += 2
		p.tok = tok{tBangBrace, "!{", start}
		return
	}
	single := map[byte]tkind{
		'|': tPipe, '*': tStar, '+': tPlus, '?': tQuest,
		'(': tLParen, ')': tRParen, '[': tLBrack, ']': tRBrack,
		'{': tLBrace, '}': tRBrace, ',': tComma, '^': tCaret,
	}
	if k, ok := single[c]; ok {
		p.pos++
		p.tok = tok{k, string(c), start}
		return
	}
	switch {
	case c == '=' || c == '<' || c == '>':
		p.pos++
		p.tok = tok{tOp, string(c), start}
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
		p.tok = tok{tString, b.String(), start}
	case c >= '0' && c <= '9' || c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9':
		p.pos++
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.' ||
			p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
			p.pos++
			// An exponent may be signed, as graph.Value writes one.
			if e := p.src[p.pos-1]; (e == 'e' || e == 'E') && p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
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

// peek returns the token after the current one without consuming it.
func (p *parser) peek() tok {
	cur := p.tok
	p.next()
	peeked := p.tok
	p.save = append(p.save, peeked)
	p.tok = cur
	return peeked
}

// parseAtomContent parses the inside of (…) or […]; close is the expected
// closing token kind.
func (p *parser) parseAtomContent(edge bool, close tkind) (Expr, error) {
	closeText := ")"
	if close == tRBrack {
		closeText = "]"
	}
	expectClose := func() error {
		if p.tok.kind != close {
			return p.Errorf("expected %q, got %s", closeText, p.tok)
		}
		p.next()
		return nil
	}
	switch p.tok.kind {
	case close: // anonymous wildcard () or []
		p.next()
		return Atom{Edge: edge, Wild: true}, nil
	case tUnder:
		p.next()
		v, err := p.varSuffix()
		if err != nil {
			return nil, err
		}
		if err := expectClose(); err != nil {
			return nil, err
		}
		return Atom{Edge: edge, Wild: true, Var: v}, nil
	case tBangBrace:
		p.next()
		var set []string
		for {
			if p.tok.kind != tIdent && p.tok.kind != tString {
				return nil, p.Errorf("expected label in wildcard set, got %s", p.tok)
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
			return nil, p.Errorf("expected '}' closing wildcard set, got %s", p.tok)
		}
		p.next()
		v, err := p.varSuffix()
		if err != nil {
			return nil, err
		}
		if err := expectClose(); err != nil {
			return nil, err
		}
		return Atom{Edge: edge, Wild: true, Except: set, Var: v}, nil
	case tIdent, tString:
		name := p.tok.text
		isString := p.tok.kind == tString
		p.next()
		switch p.tok.kind {
		case tAssign: // x := pname
			if isString {
				return nil, p.Errorf("data variable must be an identifier")
			}
			p.next()
			if p.tok.kind != tIdent && p.tok.kind != tString {
				return nil, p.Errorf("expected property name after ':=', got %s", p.tok)
			}
			prop := p.tok.text
			p.next()
			if err := expectClose(); err != nil {
				return nil, err
			}
			t := AssignTest(name, prop)
			return Atom{Edge: edge, Test: &t}, nil
		case tOp: // pname op (c | x)
			op, err := graph.ParseOp(p.tok.text)
			if err != nil {
				return nil, p.Errorf("%v", err)
			}
			p.next()
			var t Test
			switch p.tok.kind {
			case tNumber:
				v, err := parseNumber(p.tok.text)
				if err != nil {
					return nil, p.Errorf("%v", err)
				}
				t = ConstTest(name, op, v)
			case tString:
				t = ConstTest(name, op, graph.Str(p.tok.text))
			case tIdent:
				switch p.tok.text {
				case "true":
					t = ConstTest(name, op, graph.Bool(true))
				case "false":
					t = ConstTest(name, op, graph.Bool(false))
				case "null":
					t = ConstTest(name, op, graph.Null())
				default:
					t = VarTest(name, op, p.tok.text)
				}
			default:
				return nil, p.Errorf("expected comparison right-hand side, got %s", p.tok)
			}
			p.next()
			if err := expectClose(); err != nil {
				return nil, err
			}
			return Atom{Edge: edge, Test: &t}, nil
		case tCaret:
			p.next()
			if p.tok.kind != tIdent {
				return nil, p.Errorf("expected variable after '^', got %s", p.tok)
			}
			v := p.tok.text
			p.next()
			if err := expectClose(); err != nil {
				return nil, err
			}
			return Atom{Edge: edge, Name: name, Var: v}, nil
		default:
			if err := expectClose(); err != nil {
				return nil, err
			}
			return Atom{Edge: edge, Name: name}, nil
		}
	default:
		return nil, p.Errorf("expected atom content, got %s", p.tok)
	}
}

func (p *parser) varSuffix() (string, error) {
	if p.tok.kind != tCaret {
		return "", nil
	}
	p.next()
	if p.tok.kind != tIdent {
		return "", p.Errorf("expected variable after '^', got %s", p.tok)
	}
	v := p.tok.text
	p.next()
	return v, nil
}

func parseNumber(s string) (graph.Value, error) {
	if !strings.ContainsAny(s, ".eE") {
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return graph.Null(), fmt.Errorf("dlrpq: invalid integer %q", s)
		}
		return graph.Int(i), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return graph.Null(), fmt.Errorf("dlrpq: invalid number %q", s)
	}
	return graph.Float(f), nil
}
