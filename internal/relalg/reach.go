package relalg

import (
	"context"
	"fmt"
	"strings"
	"unicode"

	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// This file routes the algebra's reachability atoms through the
// product-graph kernel (this PR's tentpole for the relalg tier): REACH(e)
// AS (x, y) is the binary relation {(u, v) | some e-path u ⇝ v}, computed
// by eval.PairsCtx on the kernel — so the atom inherits budgets, amortized
// cancellation, the cost-based planner, and the direction-optimizing sweep
// — while the set operators (JOIN, UNION, DIFF, projection, renaming) stay
// tier-local, metered per tuple through the same Ticker discipline.

// Query is a relational-algebra query over reachability atoms.
type Query interface {
	fmt.Stringer
	isQuery()
}

// ReachQ is the kernel-backed atom REACH(e) AS (x, y): all node pairs
// (u, v) connected by a path matching the RPQ e, as a binary relation with
// attributes X and Y.
type ReachQ struct {
	Expr rpq.Expr
	X, Y string
}

// JoinQ is the natural join L ⋈ R.
type JoinQ struct{ Left, Right Query }

// UnionQ is L ∪ R (schemas must match).
type UnionQ struct{ Left, Right Query }

// DiffQ is L − R (schemas must match).
type DiffQ struct{ Left, Right Query }

// ProjectQ is π_Attrs(Sub).
type ProjectQ struct {
	Sub   Query
	Attrs []string
}

// RenameQ is ρ_{From→To}(Sub).
type RenameQ struct {
	Sub      Query
	From, To string
}

func (ReachQ) isQuery()   {}
func (JoinQ) isQuery()    {}
func (UnionQ) isQuery()   {}
func (DiffQ) isQuery()    {}
func (ProjectQ) isQuery() {}
func (RenameQ) isQuery()  {}

func (q ReachQ) String() string {
	return fmt.Sprintf("REACH(%s) AS (%s, %s)", q.Expr, q.X, q.Y)
}
func (q JoinQ) String() string  { return "(" + q.Left.String() + " JOIN " + q.Right.String() + ")" }
func (q UnionQ) String() string { return "(" + q.Left.String() + " UNION " + q.Right.String() + ")" }
func (q DiffQ) String() string  { return "(" + q.Left.String() + " DIFF " + q.Right.String() + ")" }
func (q ProjectQ) String() string {
	return "PROJECT(" + q.Sub.String() + "; " + strings.Join(q.Attrs, ", ") + ")"
}
func (q RenameQ) String() string {
	return "RENAME(" + q.Sub.String() + "; " + q.From + " -> " + q.To + ")"
}

// EvalQueryCtx evaluates the query under a context and budget. Every
// reachability atom runs on the product-graph kernel with opts applied
// (Plan, Parallelism, MaxLen, Budget/Meter); set-operator work is charged
// per tuple to the states budget, and each final tuple to the rows budget.
// Errors follow the standard taxonomy and return no partial results.
func EvalQueryCtx(ctx context.Context, g *graph.Graph, q Query, opts eval.Options) (*Relation, error) {
	m := opts.Meter
	if m == nil {
		m = pg.NewMeter(ctx, opts.Budget, nil, nil)
		opts.Meter = m
	}
	tick := pg.NewTicker(m, nil)
	rel, err := evalQuery(ctx, g, q, opts, &tick)
	if err != nil {
		return nil, err
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	if err := m.AddRows(int64(rel.Len())); err != nil {
		return nil, err
	}
	return rel, nil
}

func evalQuery(ctx context.Context, g *graph.Graph, q Query, opts eval.Options, t *pg.Ticker) (*Relation, error) {
	switch n := q.(type) {
	case ReachQ:
		pairs, err := eval.PairsCtx(ctx, g, n.Expr, opts)
		if err != nil {
			return nil, err
		}
		rel, err := NewRelation(n.X, n.Y)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			if err := t.Step(); err != nil {
				return nil, err
			}
			if err := rel.Add(NodeCell(p[0]), NodeCell(p[1])); err != nil {
				return nil, err
			}
		}
		return rel, nil
	case JoinQ:
		l, r, err := evalPair(ctx, g, n.Left, n.Right, opts, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Join(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case UnionQ:
		l, r, err := evalPair(ctx, g, n.Left, n.Right, opts, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Union(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case DiffQ:
		l, r, err := evalPair(ctx, g, n.Left, n.Right, opts, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Diff(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case ProjectQ:
		sub, err := evalQuery(ctx, g, n.Sub, opts, t)
		if err != nil {
			return nil, err
		}
		out, err := sub.Project(n.Attrs...)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case RenameQ:
		sub, err := evalQuery(ctx, g, n.Sub, opts, t)
		if err != nil {
			return nil, err
		}
		out, err := sub.Rename(n.From, n.To)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	default:
		return nil, fmt.Errorf("relalg: unknown query %T", q)
	}
}

func evalPair(ctx context.Context, g *graph.Graph, left, right Query, opts eval.Options, t *pg.Ticker) (*Relation, *Relation, error) {
	l, err := evalQuery(ctx, g, left, opts, t)
	if err != nil {
		return nil, nil, err
	}
	r, err := evalQuery(ctx, g, right, opts, t)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func tickPer(t *pg.Ticker, n int) error {
	for i := 0; i < n; i++ {
		if err := t.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ParseQuery parses the textual algebra syntax:
//
//	query := term (('UNION' | 'DIFF') term)*        left-associative
//	term  := atom ('JOIN' atom)*                    left-associative
//	atom  := 'REACH' '(' rpq ')' 'AS' '(' x ',' y ')'
//	       | 'PROJECT' '(' query ';' x (',' x)* ')'
//	       | 'RENAME' '(' query ';' x '->' y ')'
//	       | '(' query ')'
//
// The rpq inside REACH uses the rpq package syntax (labels, '|', '*', '_',
// …). Keywords are case-sensitive. Example:
//
//	REACH(Transfer*) AS (x, y) JOIN REACH(Owns) AS (y, z)
func ParseQuery(input string) (Query, error) {
	p := &queryParser{src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	p.ws()
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected %q", p.src[p.pos:])
	}
	return q, nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(input string) Query {
	q, err := ParseQuery(input)
	if err != nil {
		panic(err)
	}
	return q
}

type queryParser struct {
	src string
	pos int
}

func (p *queryParser) errf(format string, args ...any) error {
	return fmt.Errorf("relalg: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *queryParser) ws() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

// keyword consumes kw if it appears next as a full word.
func (p *queryParser) keyword(kw string) bool {
	p.ws()
	if !strings.HasPrefix(p.src[p.pos:], kw) {
		return false
	}
	rest := p.src[p.pos+len(kw):]
	if rest != "" && (isIdentByte(rest[0])) {
		return false
	}
	p.pos += len(kw)
	return true
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *queryParser) expect(c byte) error {
	p.ws()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *queryParser) ident() (string, error) {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

func (p *queryParser) parseQuery() (Query, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.keyword("UNION"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = UnionQ{Left: left, Right: right}
		case p.keyword("DIFF"):
			right, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			left = DiffQ{Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *queryParser) parseTerm() (Query, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.keyword("JOIN") {
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		left = JoinQ{Left: left, Right: right}
	}
	return left, nil
}

func (p *queryParser) parseAtom() (Query, error) {
	switch {
	case p.keyword("REACH"):
		if err := p.expect('('); err != nil {
			return nil, err
		}
		src, err := p.balanced()
		if err != nil {
			return nil, err
		}
		e, err := rpq.Parse(src)
		if err != nil {
			return nil, p.errf("in REACH: %v", err)
		}
		if err := rpq.CheckPositions(e); err != nil {
			return nil, fmt.Errorf("relalg: in REACH: %w", err)
		}
		if !p.keyword("AS") {
			return nil, p.errf("expected AS after REACH(...)")
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		y, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if x == y {
			return nil, p.errf("REACH attributes must be distinct, got (%s, %s)", x, y)
		}
		return ReachQ{Expr: e, X: x, Y: y}, nil
	case p.keyword("PROJECT"):
		if err := p.expect('('); err != nil {
			return nil, err
		}
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(';'); err != nil {
			return nil, err
		}
		var attrs []string
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return ProjectQ{Sub: sub, Attrs: attrs}, nil
	case p.keyword("RENAME"):
		if err := p.expect('('); err != nil {
			return nil, err
		}
		sub, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(';'); err != nil {
			return nil, err
		}
		from, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.ws()
		if !strings.HasPrefix(p.src[p.pos:], "->") {
			return nil, p.errf("expected -> in RENAME")
		}
		p.pos += 2
		to, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return RenameQ{Sub: sub, From: from, To: to}, nil
	default:
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos++
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expect(')'); err != nil {
				return nil, err
			}
			return sub, nil
		}
		return nil, p.errf("expected REACH, PROJECT, RENAME, or (")
	}
}

// balanced consumes up to (and including) the ')' matching an already-
// consumed '(' and returns the text between, honoring nested parens and
// single-quoted rpq labels, inside which a backslash makes the next byte
// literal as the rpq lexer reads it.
func (p *queryParser) balanced() (string, error) {
	start := p.pos
	depth := 1
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\'':
			p.pos++
			for p.pos < len(p.src) && p.src[p.pos] != '\'' {
				if p.src[p.pos] == '\\' {
					p.pos++
				}
				p.pos++
			}
			if p.pos >= len(p.src) {
				return "", p.errf("unterminated quoted label")
			}
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				out := p.src[start:p.pos]
				p.pos++
				return out, nil
			}
		}
		p.pos++
	}
	return "", p.errf("unbalanced parentheses")
}
