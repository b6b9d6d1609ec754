package gql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"graphquery/internal/automata"
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
// x.k >= 'abc', combined with AND, OR, NOT and parentheses. A pattern
// prints (String) as a text that parses back to it. A text nesting groups
// and repetitions past rpq.MaxNesting, or with a concatenation or union of
// more than rpq.MaxPositions parts (rpq.PartsError), is refused as soon as
// the parser gets there.
func ParsePattern(input string) (Pattern, error) {
	p := &pparser{src: input}
	p.next()
	return rpq.Read[lang](p, rpq.TokEnd)
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

// pparser is the pattern lexer, read by rpq.Read. Its atoms are nodes,
// edges and groups: a '(' opens a node pattern or a group that may end in
// a WHERE, so a group is an atom whose body the reader reads (Nested).
type pparser struct {
	src  string
	pos  int
	tok  ptok
	save []ptok
	r    *rpq.Reader[lang] // the reader of the pattern, for a condition's depth
}

func (p *pparser) Errorf(format string, args ...any) error {
	return fmt.Errorf("gql: parse error at offset %d: "+format, append([]any{p.tok.pos}, args...)...)
}

func (p *pparser) Got() string { return p.tok.String() }

func (p *pparser) Skip() { p.next() }

func (p *pparser) Empty(bool) bool { return false }

func (p *pparser) Peek() rpq.Token {
	switch p.tok.kind {
	case ptEOF:
		return rpq.TokEnd
	case ptLParen, ptEdgeOpen, ptBareEdge:
		return rpq.TokAtom
	case ptRParen:
		return rpq.TokClose
	case ptPipe:
		return rpq.TokOr
	case ptStar:
		return rpq.TokStar
	case ptPlus:
		return rpq.TokPlus
	case ptQuest:
		return rpq.TokQuest
	case ptLBrace:
		return rpq.TokCount
	}
	return rpq.TokOther
}

func (p *pparser) Count() (int, int, error) {
	min, max, n, err := rpq.ScanCount(p.src[p.tok.pos:])
	if err != nil {
		return 0, 0, p.Errorf("%v", err)
	}
	p.pos, p.save = p.tok.pos+n, nil
	p.next()
	return min, max, nil
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
	case isIdentStart(rest):
		for p.pos < len(p.src) {
			r, size := utf8.DecodeRuneInString(p.src[p.pos:])
			if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			p.pos += size
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
		// Any other character stands for itself, as a one-character name.
		_, size := utf8.DecodeRuneInString(rest)
		p.pos += size
		p.tok = ptok{ptIdent, rest[:size], start}
	}
}

func isIdentStart(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return r == '_' || unicode.IsLetter(r)
}

func (p *pparser) peek() ptok {
	cur := p.tok
	p.next()
	peeked := p.tok
	p.save = append(p.save, peeked)
	p.tok = cur
	return peeked
}

func (p *pparser) Atom(r *rpq.Reader[lang]) (Pattern, error) {
	switch p.tok.kind {
	case ptBareEdge:
		p.next()
		return AnonEdge(), nil
	case ptEdgeOpen:
		p.next()
		varName, label, err := p.parseVarLabel(ptEdgeClose, "edge close")
		if err != nil {
			return nil, err
		}
		return EdgeP{Var: varName, Label: label}, nil
	}
	p.r = r
	return p.parseParenElement()
}

// parseParenElement handles the node-vs-group ambiguity of '(': a node
// pattern contains only an optional variable and label; anything else is a
// grouped subpattern (possibly with a WHERE clause).
func (p *pparser) parseParenElement() (Pattern, error) {
	p.next() // consume '('
	// The node form is [ident] [':' ident] ')'; a group never starts with
	// an identifier.
	if k := p.tok.kind; k == ptRParen || k == ptColon || k == ptIdent {
		if k := p.peek().kind; p.tok.kind == ptIdent && k != ptRParen && k != ptColon {
			return nil, p.Errorf("unexpected %q inside '(' (node patterns are (x) or (x:L))", p.tok.text)
		}
		v, label, err := p.parseVarLabel(ptRParen, "')' after node label")
		if err != nil {
			return nil, err
		}
		return NodeP{Var: v, Label: label}, nil
	}
	// Group: a full pattern, an optional WHERE, then ')'.
	var cond coregql.Condition
	alts, err := p.r.Nested(1, func() error {
		if p.tok.kind == ptWhere {
			p.next()
			var err error
			if cond, err = p.parseCondition(); err != nil {
				return err
			}
		}
		if p.tok.kind != ptRParen {
			return p.Errorf("expected ')', got %s", p.tok)
		}
		p.next()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sub := automata.Alt(alts...)
	if cond != nil {
		sub = Where(sub, cond)
	}
	return sub, nil
}

// parseVarLabel parses "[var][:label]" up to the closing token, named
// close in the error when it is missing.
func (p *pparser) parseVarLabel(closeKind ptkind, close string) (varName, label string, err error) {
	if p.tok.kind == ptIdent {
		varName = p.tok.text
		p.next()
	}
	if p.tok.kind == ptColon {
		p.next()
		if p.tok.kind != ptIdent {
			return "", "", p.Errorf("expected label after ':', got %s", p.tok)
		}
		label = p.tok.text
		p.next()
	}
	if p.tok.kind != closeKind {
		return "", "", p.Errorf("expected %s, got %s", close, p.tok)
	}
	p.next()
	return varName, label, nil
}

// Condition grammar: or-expr of and-exprs of (possibly negated) atoms. A
// chain of ORs or of ANDs is one flat node of at most rpq.MaxPositions terms
// (rpq.PartsError), and a NOT counts toward rpq.MaxNesting like a group, so
// what Holds and String recurse through is bounded by the nesting bound, not
// by the text's length.
func (p *pparser) parseCondition() (coregql.Condition, error) {
	return p.parseChain(ptOr, p.parseCondAnd, func(ts []coregql.Condition) coregql.Condition { return coregql.Or(ts) })
}

func (p *pparser) parseCondAnd() (coregql.Condition, error) {
	return p.parseChain(ptAnd, p.parseCondAtom, func(ts []coregql.Condition) coregql.Condition { return coregql.And(ts) })
}

// parseChain reads term (sep term)* and returns the one term, or the chain
// of them as node.
func (p *pparser) parseChain(sep ptkind, term func() (coregql.Condition, error), node func([]coregql.Condition) coregql.Condition) (coregql.Condition, error) {
	first, err := term()
	if err != nil || p.tok.kind != sep {
		return first, err
	}
	terms := []coregql.Condition{first}
	for p.tok.kind == sep {
		p.next()
		if err := rpq.PartsError(len(terms) + 1); err != nil {
			return nil, p.Errorf("%w", err)
		}
		t, err := term()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	return node(terms), nil
}

func (p *pparser) parseCondAtom() (coregql.Condition, error) {
	if p.tok.kind == ptNot {
		if err := p.r.Enter(); err != nil {
			return nil, err
		}
		p.next()
		sub, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		p.r.Leave()
		return coregql.Not{Sub: sub}, nil
	}
	if p.tok.kind == ptLParen {
		if err := p.r.Enter(); err != nil {
			return nil, err
		}
		p.next()
		c, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != ptRParen {
			return nil, p.Errorf("expected ')' in condition, got %s", p.tok)
		}
		p.next()
		p.r.Leave()
		return c, nil
	}
	if p.tok.kind != ptIdent {
		return nil, p.Errorf("expected condition, got %s", p.tok)
	}
	x := p.tok.text
	p.next()
	// label test ℓ(x)?
	if p.tok.kind == ptLParen {
		p.next()
		if p.tok.kind != ptIdent {
			return nil, p.Errorf("expected variable in label test, got %s", p.tok)
		}
		v := p.tok.text
		p.next()
		if p.tok.kind != ptRParen {
			return nil, p.Errorf("expected ')' in label test, got %s", p.tok)
		}
		p.next()
		return coregql.HasLabel(v, x), nil
	}
	if p.tok.kind != ptDot {
		return nil, p.Errorf("expected '.' after %q in condition", x)
	}
	p.next()
	if p.tok.kind != ptIdent {
		return nil, p.Errorf("expected property name, got %s", p.tok)
	}
	k := p.tok.text
	p.next()
	if p.tok.kind != ptOp {
		return nil, p.Errorf("expected comparison operator, got %s", p.tok)
	}
	op, err := graph.ParseOp(p.tok.text)
	if err != nil {
		return nil, p.Errorf("%v", err)
	}
	p.next()
	switch p.tok.kind {
	case ptNumber:
		v, perr := parseNumberValue(p.tok.text)
		if perr != nil {
			return nil, p.Errorf("%v", perr)
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
			return nil, p.Errorf("expected '.' after %q in condition", y)
		}
		p.next()
		if p.tok.kind != ptIdent {
			return nil, p.Errorf("expected property name, got %s", p.tok)
		}
		k2 := p.tok.text
		p.next()
		return coregql.Cmp(x, k, op, y, k2), nil
	default:
		return nil, p.Errorf("expected comparison right-hand side, got %s", p.tok)
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
