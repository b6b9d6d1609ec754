package spanner

import "fmt"

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
// bytes.
func Parse(input string) (Expr, error) {
	p := &spanParser{src: input}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("trailing input %q", p.src[p.pos:])
	}
	return e, nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type spanParser struct {
	src string
	pos int
	// lit ends an identifier run already found not to name a capture: its
	// bytes are literals, and the run is scanned once, not once per byte.
	lit int
}

func (p *spanParser) errf(format string, args ...any) error {
	return fmt.Errorf("spanner: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *spanParser) parseUnion() (Expr, error) {
	first, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	alts := []Expr{first}
	for p.pos < len(p.src) && p.src[p.pos] == '|' {
		p.pos++
		next, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	return Alt(alts...), nil
}

func (p *spanParser) parseConcat() (Expr, error) {
	var parts []Expr
	for p.pos < len(p.src) && p.src[p.pos] != '|' && p.src[p.pos] != ')' && p.src[p.pos] != '}' {
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	return Seq(parts...), nil
}

func (p *spanParser) parseFactor() (Expr, error) {
	atom, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '*':
			p.pos++
			atom = Star(atom)
		case '+':
			p.pos++
			atom = Plus(atom)
		default:
			return atom, nil
		}
	}
	return atom, nil
}

func (p *spanParser) parseAtom() (Expr, error) {
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		e, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("expected ')'")
		}
		p.pos++
		return e, nil
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
		return nil, p.errf("dangling '\\'")
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
			sub, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			if p.pos >= len(p.src) || p.src[p.pos] != '}' {
				return nil, p.errf("expected '}' closing capture %s", name)
			}
			p.pos++
			return Cap(name, sub), nil
		}
		p.lit = end
		p.pos++
		return Char{C: c}, nil
	case c == '*' || c == '+' || c == '{':
		return nil, p.errf("unexpected %q", string(c))
	default:
		// Any other byte (space, punctuation) is a literal.
		p.pos++
		return Char{C: c}, nil
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
