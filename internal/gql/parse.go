package gql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"graphquery/internal/coregql"
	"graphquery/internal/graph"
	"graphquery/internal/rpq"
)

// ParsePattern parses GQL's ASCII-art pattern syntax, the notation used
// throughout the paper:
//
//	(x)                      node bound to x
//	(x:Account)              node with a label test
//	()                       anonymous node
//	-[z:a]->                 edge bound to z with label a
//	-[:a]->  -->             anonymous edges
//	(()-[z:a]->()){2}        iteration (z becomes a group variable)
//	((u)-->(v) WHERE u.k < v.k)*   conditions + Kleene star
//	((x) | -[y:a]->)         union (branches may bind different variables)
//
// Conditions compare properties of bound variables: x.k < y.k, x.k = 5,
// x.k >= 'abc', combined with AND, OR, NOT.
func ParsePattern(input string) (Pattern, error) {
	p := &pparser{src: input}
	p.next()
	if p.tok.kind == ptEOF {
		return nil, p.errorf("empty pattern")
	}
	pat, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != ptEOF {
		return nil, p.errorf("unexpected %s", p.tok)
	}
	return pat, nil
}

// MustParsePattern parses or panics.
func MustParsePattern(input string) Pattern {
	pat, err := ParsePattern(input)
	if err != nil {
		panic(err)
	}
	return pat
}

type ptkind int

const (
	ptEOF ptkind = iota
	ptIdent
	ptNumber
	ptString
	ptLParen
	ptRParen
	ptLBrace
	ptRBrace
	ptPipe
	ptStar
	ptPlus
	ptQuest
	ptComma
	ptColon
	ptDot
	ptEdgeOpen  // -[
	ptEdgeClose // ]->
	ptBareEdge  // -->
	ptOp        // comparison
	ptWhere
	ptAnd
	ptOr
	ptNot
)

type ptok struct {
	kind ptkind
	text string
	pos  int
}

func (t ptok) String() string {
	if t.kind == ptEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type pparser struct {
	src   string
	pos   int
	tok   ptok
	save  []ptok
	depth int // groups open around the current token
}

func (p *pparser) errorf(format string, args ...any) error {
	return fmt.Errorf("gql: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *pparser) next() {
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
		p.tok = ptok{kind: ptEOF, pos: start}
		return
	}
	rest := p.src[p.pos:]
	switch {
	case strings.HasPrefix(rest, "-["):
		p.pos += 2
		p.tok = ptok{ptEdgeOpen, "-[", start}
		return
	case strings.HasPrefix(rest, "]->"):
		p.pos += 3
		p.tok = ptok{ptEdgeClose, "]->", start}
		return
	case strings.HasPrefix(rest, "-->"):
		p.pos += 3
		p.tok = ptok{ptBareEdge, "-->", start}
		return
	case strings.HasPrefix(rest, "<=") || strings.HasPrefix(rest, ">=") ||
		strings.HasPrefix(rest, "!=") || strings.HasPrefix(rest, "<>"):
		p.pos += 2
		p.tok = ptok{ptOp, rest[:2], start}
		return
	}
	c := p.src[p.pos]
	single := map[byte]ptkind{
		'(': ptLParen, ')': ptRParen, '{': ptLBrace, '}': ptRBrace,
		'|': ptPipe, '*': ptStar, '+': ptPlus, '?': ptQuest,
		',': ptComma, ':': ptColon, '.': ptDot,
	}
	if k, ok := single[c]; ok {
		p.pos++
		p.tok = ptok{k, string(c), start}
		return
	}
	switch {
	case c == '=' || c == '<' || c == '>':
		p.pos++
		p.tok = ptok{ptOp, string(c), start}
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
		p.tok = ptok{ptString, b.String(), start}
	case c >= '0' && c <= '9' || c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9':
		p.pos++
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		p.tok = ptok{ptNumber, p.src[start:p.pos], start}
	case c == '_' || unicode.IsLetter(rune(c)):
		for p.pos < len(p.src) {
			r := rune(p.src[p.pos])
			if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			p.pos++
		}
		text := p.src[start:p.pos]
		switch text {
		case "WHERE":
			p.tok = ptok{ptWhere, text, start}
		case "AND":
			p.tok = ptok{ptAnd, text, start}
		case "OR":
			p.tok = ptok{ptOr, text, start}
		case "NOT":
			p.tok = ptok{ptNot, text, start}
		default:
			p.tok = ptok{ptIdent, text, start}
		}
	default:
		p.tok = ptok{ptIdent, string(c), start}
		p.pos++
	}
}

func (p *pparser) peek() ptok {
	cur := p.tok
	p.next()
	peeked := p.tok
	p.save = append(p.save, peeked)
	p.tok = cur
	return peeked
}

func (p *pparser) parseUnion() (Pattern, error) {
	first, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	out := first
	for p.tok.kind == ptPipe {
		p.next()
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		out = Union(out, right)
	}
	return out, nil
}

func (p *pparser) parseSeq() (Pattern, error) {
	var parts []Pattern
	for {
		switch p.tok.kind {
		case ptLParen, ptEdgeOpen, ptBareEdge:
			el, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			parts = append(parts, el)
		default:
			if len(parts) == 0 {
				return nil, p.errorf("expected pattern element, got %s", p.tok)
			}
			return Concat(parts...), nil
		}
	}
}

func (p *pparser) parseElement() (Pattern, error) {
	var el Pattern
	switch p.tok.kind {
	case ptBareEdge:
		p.next()
		el = AnonEdge()
	case ptEdgeOpen:
		p.next()
		varName, label, err := p.parseVarLabel(ptEdgeClose)
		if err != nil {
			return nil, err
		}
		el = EdgeP{Var: varName, Label: label}
	case ptLParen:
		var err error
		el, err = p.parseParenElement()
		if err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected element, got %s", p.tok)
	}
	return p.parsePostfix(el)
}

// parseParenElement handles the node-vs-group ambiguity of '(': a node
// pattern contains only an optional variable and label; anything else is a
// grouped subpattern (possibly with a WHERE clause).
func (p *pparser) parseParenElement() (Pattern, error) {
	p.next() // consume '('
	// Try the node form: [ident] [':' ident] ')'.
	if p.tok.kind == ptRParen { // ()
		p.next()
		return AnonNode(), nil
	}
	if p.tok.kind == ptIdent || p.tok.kind == ptColon {
		// Lookahead to decide: node patterns close immediately after the
		// var/label part.
		if p.tok.kind == ptIdent {
			name := p.tok.text
			switch p.peek().kind {
			case ptRParen:
				p.next()
				p.next()
				return Node(name), nil
			case ptColon:
				p.next() // ident
				p.next() // ':'
				if p.tok.kind != ptIdent {
					return nil, p.errorf("expected label after ':', got %s", p.tok)
				}
				label := p.tok.text
				p.next()
				if p.tok.kind != ptRParen {
					return nil, p.errorf("expected ')' after node label, got %s", p.tok)
				}
				p.next()
				return NodeL(name, label), nil
			}
			// Not a node: fall through to group parsing with the ident
			// re-interpreted — only possible if it starts a condition-free
			// subpattern, which idents cannot; error out clearly.
			return nil, p.errorf("unexpected %q inside '(' (node patterns are (x) or (x:L))", name)
		}
		// (:L)
		p.next()
		if p.tok.kind != ptIdent {
			return nil, p.errorf("expected label after ':', got %s", p.tok)
		}
		label := p.tok.text
		p.next()
		if p.tok.kind != ptRParen {
			return nil, p.errorf("expected ')' after node label, got %s", p.tok)
		}
		p.next()
		return NodeL("", label), nil
	}
	// Group: parse a full pattern, optional WHERE, then ')' — refused past
	// rpq.MaxNesting before the parser descends into it.
	if p.depth++; p.depth > rpq.MaxNesting {
		return nil, p.errorf("groups nest %d deep; the bound is %d", p.depth, rpq.MaxNesting)
	}
	sub, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == ptWhere {
		p.next()
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		sub = Where(sub, cond)
	}
	if p.tok.kind != ptRParen {
		return nil, p.errorf("expected ')', got %s", p.tok)
	}
	p.next()
	p.depth--
	return sub, nil
}

func (p *pparser) parsePostfix(el Pattern) (Pattern, error) {
	for {
		switch p.tok.kind {
		case ptStar:
			el = Star(el)
			p.next()
		case ptPlus:
			el = Repeat(el, 1, -1)
			p.next()
		case ptQuest:
			el = Repeat(el, 0, 1)
			p.next()
		case ptLBrace:
			p.next()
			if p.tok.kind != ptNumber {
				return nil, p.errorf("expected repetition count, got %s", p.tok)
			}
			min, _ := strconv.Atoi(p.tok.text)
			p.next()
			max := min
			if p.tok.kind == ptComma {
				p.next()
				switch p.tok.kind {
				case ptNumber:
					max, _ = strconv.Atoi(p.tok.text)
					p.next()
				case ptRBrace:
					max = -1
				default:
					return nil, p.errorf("expected upper bound or '}', got %s", p.tok)
				}
			}
			if p.tok.kind != ptRBrace {
				return nil, p.errorf("expected '}', got %s", p.tok)
			}
			if max >= 0 && max < min {
				return nil, p.errorf("invalid repetition {%d,%d}", min, max)
			}
			p.next()
			el = Repeat(el, min, max)
		default:
			return el, nil
		}
	}
}

// parseVarLabel parses "[var][:label]" up to the closing token.
func (p *pparser) parseVarLabel(closeKind ptkind) (varName, label string, err error) {
	if p.tok.kind == ptIdent {
		varName = p.tok.text
		p.next()
	}
	if p.tok.kind == ptColon {
		p.next()
		if p.tok.kind != ptIdent {
			return "", "", p.errorf("expected label after ':', got %s", p.tok)
		}
		label = p.tok.text
		p.next()
	}
	if p.tok.kind != closeKind {
		return "", "", p.errorf("expected edge close, got %s", p.tok)
	}
	p.next()
	return varName, label, nil
}

// Condition grammar: or-expr of and-exprs of (possibly negated) atoms.
func (p *pparser) parseCondition() (coregql.Condition, error) {
	left, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == ptOr {
		p.next()
		right, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		left = coregql.Or{L: left, R: right}
	}
	return left, nil
}

func (p *pparser) parseCondAnd() (coregql.Condition, error) {
	left, err := p.parseCondAtom()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == ptAnd {
		p.next()
		right, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		left = coregql.And{L: left, R: right}
	}
	return left, nil
}

func (p *pparser) parseCondAtom() (coregql.Condition, error) {
	if p.tok.kind == ptNot {
		p.next()
		sub, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		return coregql.Not{Sub: sub}, nil
	}
	if p.tok.kind != ptIdent {
		return nil, p.errorf("expected condition, got %s", p.tok)
	}
	x := p.tok.text
	p.next()
	// label test ℓ(x)?
	if p.tok.kind == ptLParen {
		p.next()
		if p.tok.kind != ptIdent {
			return nil, p.errorf("expected variable in label test, got %s", p.tok)
		}
		v := p.tok.text
		p.next()
		if p.tok.kind != ptRParen {
			return nil, p.errorf("expected ')' in label test, got %s", p.tok)
		}
		p.next()
		return coregql.HasLabel(v, x), nil
	}
	if p.tok.kind != ptDot {
		return nil, p.errorf("expected '.' after %q in condition", x)
	}
	p.next()
	if p.tok.kind != ptIdent {
		return nil, p.errorf("expected property name, got %s", p.tok)
	}
	k := p.tok.text
	p.next()
	if p.tok.kind != ptOp {
		return nil, p.errorf("expected comparison operator, got %s", p.tok)
	}
	op, err := graph.ParseOp(p.tok.text)
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	p.next()
	switch p.tok.kind {
	case ptNumber:
		v, perr := parseNumberValue(p.tok.text)
		if perr != nil {
			return nil, p.errorf("%v", perr)
		}
		p.next()
		return coregql.CmpConst(x, k, op, v), nil
	case ptString:
		v := graph.Str(p.tok.text)
		p.next()
		return coregql.CmpConst(x, k, op, v), nil
	case ptIdent:
		y := p.tok.text
		p.next()
		if p.tok.kind != ptDot {
			// y without a property: treat booleans.
			switch y {
			case "true":
				return coregql.CmpConst(x, k, op, graph.Bool(true)), nil
			case "false":
				return coregql.CmpConst(x, k, op, graph.Bool(false)), nil
			}
			return nil, p.errorf("expected '.' after %q in condition", y)
		}
		p.next()
		if p.tok.kind != ptIdent {
			return nil, p.errorf("expected property name, got %s", p.tok)
		}
		k2 := p.tok.text
		p.next()
		return coregql.Cmp(x, k, op, y, k2), nil
	default:
		return nil, p.errorf("expected comparison right-hand side, got %s", p.tok)
	}
}

func parseNumberValue(s string) (graph.Value, error) {
	if !strings.Contains(s, ".") {
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return graph.Null(), fmt.Errorf("invalid integer %q", s)
		}
		return graph.Int(i), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return graph.Null(), fmt.Errorf("invalid number %q", s)
	}
	return graph.Float(f), nil
}
