package spanner

import (
	"fmt"

	"graphquery/internal/rpq"
)

// Parse reads the textual form of a regex formula — the same syntax String
// renders:
//
//	a b 0 _            literal bytes (identifier characters and most others)
//	.                  any single byte
//	\w                 word byte [A-Za-z0-9_]
//	(e₁|…|eₙ)          grouping / union
//	e*  e+             repetition (postfix)
//	x{e}               capture: bind variable x to the span matched by e
//
// Concatenation is juxtaposition. An identifier immediately followed by
// '{' is a capture variable; otherwise identifier characters are literal
// bytes. A text nesting groups and repetitions past rpq.MaxNesting, or with
// a concatenation or union of more than rpq.MaxPositions parts
// (rpq.PartsError), is refused as soon as the parser gets there.
func Parse(input string) (Expr, error) {
	return rpq.Read[lang](&spanParser{src: input}, rpq.TokEnd)
}

// spanParser is the formula lexer, read by rpq.Read. Every byte but the
// operators is an atom or starts one; a capture is an atom whose body the
// reader reads (Nested), and it counts as the two levels it prints as,
// (x{…}). An empty row is ε.
type spanParser struct {
	src string
	pos int
	// lit ends an identifier run already found not to name a capture: its
	// bytes are literals, and the run is scanned once, not once per byte.
	lit int
}

func (p *spanParser) Errorf(format string, args ...any) error {
	return fmt.Errorf("spanner: parse error at offset %d: "+format, append([]any{p.pos}, args...)...)
}

func (p *spanParser) Got() string {
	if p.pos == len(p.src) {
		return "end of input"
	}
	return fmt.Sprintf("%q", p.src[p.pos:p.pos+1])
}

func (p *spanParser) Peek() rpq.Token {
	if p.pos == len(p.src) {
		return rpq.TokEnd
	}
	switch p.src[p.pos] {
	case '(':
		return rpq.TokOpen
	case ')':
		return rpq.TokClose
	case '|':
		return rpq.TokOr
	case '*':
		return rpq.TokStar
	case '+':
		return rpq.TokPlus
	case '{', '}':
		return rpq.TokOther
	}
	return rpq.TokAtom
}

// Skip consumes the one-byte token ahead.
func (p *spanParser) Skip() { p.pos++ }

// Count is never asked for: a formula has no counts.
func (p *spanParser) Count() (int, int, error) { return 0, 0, p.Errorf("unexpected count") }

func (p *spanParser) Empty(bool) bool { return true }

func (p *spanParser) Atom(r *rpq.Reader[lang]) (Expr, error) {
	c := p.src[p.pos]
	switch {
	case c == '.':
		p.pos++
		return Dot(), nil
	case c == '\\':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == 'w' {
			p.pos += 2
			return Word(), nil
		}
		if p.pos+1 < len(p.src) {
			// Escaped literal: \* \. \( etc.
			ch := p.src[p.pos+1]
			p.pos += 2
			return Char{C: ch}, nil
		}
		return nil, p.Errorf("dangling '\\'")
	case p.pos < p.lit:
		p.pos++
		return Char{C: c}, nil
	case isIdentByte(c):
		// Maximal identifier run followed by '{' is a capture variable;
		// otherwise a single literal byte.
		end := p.pos
		for end < len(p.src) && isIdentByte(p.src[end]) {
			end++
		}
		if end < len(p.src) && p.src[end] == '{' {
			name := p.src[p.pos:end]
			p.pos = end + 1
			alts, err := r.Nested(2, func() error {
				if p.pos >= len(p.src) || p.src[p.pos] != '}' {
					return p.Errorf("expected '}' closing capture %s", name)
				}
				p.pos++
				return nil
			})
			if err != nil {
				return nil, err
			}
			return Cap(name, Alt(alts...)), nil
		}
		p.lit = end
		p.pos++
		return Char{C: c}, nil
	default:
		// Any other byte (space, punctuation) is a literal.
		p.pos++
		return Char{C: c}, nil
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
