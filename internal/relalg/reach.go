package relalg

import (
	"fmt"
	"strings"
	"unicode"

	"graphquery/internal/eval"
	"graphquery/internal/pg"
	"graphquery/internal/rpq"
)

// This file routes the algebra's reachability atoms through the
// product-graph kernel: REACH(e) AS (x, y) is the binary relation
// {(u, v) | some e-path u ⇝ v}, computed by eval.PairsProduct on the
// kernel — so the atom inherits the meter's amortized cancellation and
// budgets, the cost-based planner, and the direction-optimizing sweep —
// while the set operators (JOIN, UNION, DIFF, projection, renaming) stay
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

// EvalQuery evaluates the query under opts.Meter (nil: unmetered). Every
// reachability atom runs on the product of its expression with the graph,
// which product is asked for (a serving layer hands out its cached one),
// with opts applied (Plan, Parallelism, Meter); set-operator work is
// charged per tuple to the states budget, and each final tuple to the rows
// budget. Errors follow the standard taxonomy and return no partial
// results.
func EvalQuery(q Query, opts eval.Options, product func(rpq.Expr) *eval.Product) (*Relation, error) {
	tick := pg.NewTicker(opts.Meter, nil)
	rel, err := evalQuery(q, opts, product, &tick)
	if err != nil {
		return nil, err
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	if err := opts.Meter.AddRows(int64(rel.Len())); err != nil {
		return nil, err
	}
	return rel, nil
}

func evalQuery(q Query, opts eval.Options, product func(rpq.Expr) *eval.Product, t *pg.Ticker) (*Relation, error) {
	switch n := q.(type) {
	case ReachQ:
		pairs, err := eval.PairsProduct(product(n.Expr), opts)
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
		l, r, err := evalPair(n.Left, n.Right, opts, product, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Join(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case UnionQ:
		l, r, err := evalPair(n.Left, n.Right, opts, product, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Union(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case DiffQ:
		l, r, err := evalPair(n.Left, n.Right, opts, product, t)
		if err != nil {
			return nil, err
		}
		out, err := l.Diff(r)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case ProjectQ:
		sub, err := evalQuery(n.Sub, opts, product, t)
		if err != nil {
			return nil, err
		}
		out, err := sub.Project(n.Attrs...)
		if err != nil {
			return nil, err
		}
		return out, tickPer(t, out.Len())
	case RenameQ:
		sub, err := evalQuery(n.Sub, opts, product, t)
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

func evalPair(left, right Query, opts eval.Options, product func(rpq.Expr) *eval.Product, t *pg.Ticker) (*Relation, *Relation, error) {
	l, err := evalQuery(left, opts, product, t)
	if err != nil {
		return nil, nil, err
	}
	r, err := evalQuery(right, opts, product, t)
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
// …). Keywords are case-sensitive. Every atom sweeps the product of its
// own expression, so the bound is on the query: the REACH atoms together may
// compile to at most rpq.MaxPositions positions, refused as the parser
// reads past it. Example:
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
	src       string
	pos       int
	depth     int // groups open around the current position
	positions int // automaton positions of the REACH atoms read so far
}

// open enters a group — a PROJECT, a RENAME or a parenthesized query —
// refused past rpq.MaxNesting before the parser descends into it.
func (p *queryParser) open() error {
	if p.depth++; p.depth > rpq.MaxNesting {
		return p.errf("groups nest %d deep; the bound is %d", p.depth, rpq.MaxNesting)
	}
	return nil
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
		e, end, err := rpq.ParseIn(p.src, p.pos)
		if err != nil {
			return nil, fmt.Errorf("relalg: in REACH: %w", err)
		}
		p.pos = end
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		p.positions += rpq.Positions(e, 1<<30)
		if err := rpq.PositionsError(p.positions); err != nil {
			return nil, fmt.Errorf("relalg: in the REACH atoms: %w", err)
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
		if err := p.open(); err != nil {
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
		p.depth--
		return ProjectQ{Sub: sub, Attrs: attrs}, nil
	case p.keyword("RENAME"):
		if err := p.expect('('); err != nil {
			return nil, err
		}
		if err := p.open(); err != nil {
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
		p.depth--
		return RenameQ{Sub: sub, From: from, To: to}, nil
	default:
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos++
			if err := p.open(); err != nil {
				return nil, err
			}
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expect(')'); err != nil {
				return nil, err
			}
			p.depth--
			return sub, nil
		}
		return nil, p.errf("expected REACH, PROJECT, RENAME, or (")
	}
}
