package crpq

import (
	"fmt"
	"strings"

	"graphquery/internal/dlrpq"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
)

// Parse parses the Datalog-style (dl-)CRPQ syntax of Sections 3.1.2–3.2.2:
//
//	q(x1, x2, z) :- owner(y1, x1), owner(y2, x2), shortest (Transfer^z)+(y1, y2)
//	q(x) :- trail (a|b)* (x, @v3)
//	q(z) :- () {[Transfer][amount < 4500000] ()}+ (x, y), Transfer(y, x)
//
// Each atom is an optional mode keyword (shortest, simple, trail, all),
// followed by an expression, followed by the endpoint pair "(t1, t2)".
// Terms are variables or @-prefixed constant node IDs. Expressions
// containing '[', ':=', or a comparison operator are parsed as dl-RPQs
// (package dlrpq); all others as ℓ-RPQs (package lrpq), which subsume
// plain RPQs.
func Parse(input string) (*Query, error) {
	headBody := strings.SplitN(input, ":-", 2)
	if len(headBody) != 2 {
		return nil, fmt.Errorf("crpq: missing ':-' in %q", input)
	}
	head, err := parseHead(strings.TrimSpace(headBody[0]))
	if err != nil {
		return nil, err
	}
	atoms, err := splitAtoms(headBody[1])
	if err != nil {
		return nil, err
	}
	q := &Query{Head: head}
	for _, at := range atoms {
		a, err := parseAtom(strings.TrimSpace(at))
		if err != nil {
			return nil, err
		}
		q.Atoms = append(q.Atoms, a)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses or panics.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func parseHead(s string) ([]string, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("crpq: head must have the form name(x1, …, xk): %q", s)
	}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if inner == "" {
		return nil, nil // boolean query
	}
	parts := strings.Split(inner, ",")
	head := make([]string, len(parts))
	for i, p := range parts {
		head[i] = strings.TrimSpace(p)
		if head[i] == "" {
			return nil, fmt.Errorf("crpq: empty head variable in %q", s)
		}
	}
	return head, nil
}

// splitAtoms splits the body on top-level commas (depth 0 w.r.t. all
// bracket kinds, outside quotes).
func splitAtoms(s string) ([]string, error) {
	var atoms []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inQuote = false
			}
		case c == '\'':
			inQuote = true
		case c == '(' || c == '[' || c == '{':
			depth++
		case c == ')' || c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("crpq: unbalanced brackets in body")
			}
		case c == ',' && depth == 0:
			atoms = append(atoms, s[start:i])
			start = i + 1
		}
	}
	if depth != 0 || inQuote {
		return nil, fmt.Errorf("crpq: unbalanced brackets or quote in body")
	}
	last := strings.TrimSpace(s[start:])
	if last == "" {
		return nil, fmt.Errorf("crpq: empty atom in body")
	}
	atoms = append(atoms, last)
	return atoms, nil
}

// cutMode splits a leading mode keyword off an atom's text; without one
// the mode is all and the text is returned whole.
func cutMode(s string) (eval.Mode, string) {
	for _, m := range []string{"shortest", "simple", "trail", "all"} {
		if strings.HasPrefix(s, m+" ") || strings.HasPrefix(s, m+"(") || strings.HasPrefix(s, m+"\t") {
			mode, _ := eval.ParseMode(m)
			return mode, strings.TrimSpace(strings.TrimPrefix(s, m))
		}
	}
	return eval.All, s
}

func parseAtom(s string) (Atom, error) {
	var a Atom
	a.Mode, s = cutMode(s)
	exprText, srcT, dstT, err := splitTerms(s)
	if err != nil {
		return Atom{}, err
	}
	a.Src, err = parseTerm(srcT)
	if err != nil {
		return Atom{}, err
	}
	a.Dst, err = parseTerm(dstT)
	if err != nil {
		return Atom{}, err
	}
	if isDL(exprText) {
		e, err := dlrpq.Parse(exprText)
		if err != nil {
			return Atom{}, err
		}
		a.DL = e
	} else {
		e, err := lrpq.Parse(exprText)
		if err != nil {
			return Atom{}, err
		}
		if len(lrpq.Vars(e)) == 0 {
			a.RPQ = lrpq.Erase(e) // plain RPQ: unlocks reachability-only evaluation
		} else {
			a.L = e
		}
	}
	return a, nil
}

// splitTerms finds the trailing "(t1, t2)" of an atom.
func splitTerms(s string) (expr, src, dst string, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasSuffix(s, ")") {
		return "", "", "", fmt.Errorf("crpq: atom %q must end with (src, dst)", s)
	}
	depth := 0
	open := -1
	for i := len(s) - 1; i >= 0; i-- {
		switch s[i] {
		case ')':
			depth++
		case '(':
			depth--
			if depth == 0 {
				open = i
			}
		}
		if depth == 0 {
			break
		}
	}
	if open < 0 {
		return "", "", "", fmt.Errorf("crpq: atom %q has unbalanced parentheses", s)
	}
	inner := s[open+1 : len(s)-1]
	parts := strings.Split(inner, ",")
	if len(parts) != 2 {
		return "", "", "", fmt.Errorf("crpq: atom %q must end with exactly (src, dst)", s)
	}
	expr = strings.TrimSpace(s[:open])
	if expr == "" {
		return "", "", "", fmt.Errorf("crpq: atom %q has no expression", s)
	}
	return expr, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}

func parseTerm(s string) (Term, error) {
	if s == "" {
		return Term{}, fmt.Errorf("crpq: empty term")
	}
	if s[0] == '@' {
		if len(s) == 1 {
			return Term{}, fmt.Errorf("crpq: empty constant term")
		}
		return C(graph.NodeID(s[1:])), nil
	}
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return Term{}, fmt.Errorf("crpq: invalid term %q", s)
		}
	}
	return V(s), nil
}

// isDL decides the expression dialect: dl-RPQ if it contains edge brackets,
// an assignment, or a comparison operator outside quotes.
func isDL(s string) bool {
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if inQuote {
			if c == '\\' {
				i++
			} else if c == '\'' {
				inQuote = false
			}
			continue
		}
		switch c {
		case '\'':
			inQuote = true
		case '[', '=', '<', '>':
			return true
		case ':':
			if i+1 < len(s) && s[i+1] == '=' {
				return true
			}
		}
	}
	return false
}
