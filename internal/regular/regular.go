// Package regular implements nested CRPQs — regular queries in the sense of
// Reutter, Romero, and Vardi (Theory Comput. Syst. 2017) — the
// compositionality feature of Section 3.1.3: binary CRPQs may be used in
// place of edge labels inside RPQs, so transitive closures of query-defined
// "virtual edges" become expressible (Example 15). Nesting is also exactly
// what Proposition 24 identifies as missing from CoreGQL's one-directional
// pattern-then-algebra flow: with it, reachability can be evaluated over
// first-order-transformed relations.
//
// A Program is a sequence of definitions
//
//	V₁(x, y) :- …    (a binary CRPQ over the graph's labels)
//	V₂(x, y) :- …    (may use V₁ as an edge label)
//	…
//	q(…)     :- …    (the final query, using any Vᵢ)
//
// evaluated bottom-up by materializing each definition's result pairs as
// virtual edges (the Datalog-flavored syntax of the regular-queries paper).
package regular

import (
	"fmt"
	"strings"

	"graphquery/internal/crpq"
	"graphquery/internal/graph"
)

// Def is one virtual-edge definition: a binary CRPQ whose head is exactly
// (x, y) for two distinct node variables.
type Def struct {
	Name  string
	Query *crpq.Query
}

// Program is an ordered list of definitions plus a final query.
type Program struct {
	Defs  []Def
	Final *crpq.Query
}

// Validate checks that every definition is binary, names are distinct, and
// no definition name collides with a graph-level edge label used earlier.
func (p *Program) Validate() error {
	if p.Final == nil {
		return fmt.Errorf("regular: program has no final query")
	}
	seen := map[string]bool{}
	for i, d := range p.Defs {
		if d.Name == "" {
			return fmt.Errorf("regular: definition %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("regular: duplicate definition %q", d.Name)
		}
		seen[d.Name] = true
		if d.Query == nil {
			return fmt.Errorf("regular: definition %q has no body", d.Name)
		}
		if len(d.Query.Head) != 2 || d.Query.Head[0] == d.Query.Head[1] {
			return fmt.Errorf("regular: definition %q must be binary with distinct head variables", d.Name)
		}
		if err := d.Query.Validate(); err != nil {
			return fmt.Errorf("regular: definition %q: %w", d.Name, err)
		}
	}
	return p.Final.Validate()
}

// Materialize evaluates the definitions bottom-up, returning a graph
// augmented with one Name-labeled virtual edge per result pair of each
// definition. Virtual edge IDs are "$Name#i". Each definition is evaluated
// on its CRPQ plan (crpq.Compile) over the graph the definitions before it
// augmented, with one product kernel per distinct expression.
func (p *Program) Materialize(g *graph.Graph, opts crpq.Options) (*graph.Graph, error) {
	cur := g
	for _, d := range p.Defs {
		res, err := crpq.EvalPlan(cur, d.Query, opts)
		if err != nil {
			return nil, fmt.Errorf("regular: evaluating %q: %w", d.Name, err)
		}
		b := graph.NewBuilder()
		for i := 0; i < cur.NumNodes(); i++ {
			n := cur.Node(i)
			b.AddNode(n.ID, n.Label, n.Props)
		}
		for i := 0; i < cur.NumEdges(); i++ {
			e := cur.Edge(i)
			b.AddEdge(e.ID, e.Label, cur.Node(e.Src).ID, cur.Node(e.Tgt).ID, e.Props)
		}
		for i, row := range res.Rows {
			if len(row) != 2 || row[0].IsList || row[1].IsList {
				return nil, fmt.Errorf("regular: definition %q produced a non-binary row", d.Name)
			}
			b.AddEdge(graph.EdgeID(fmt.Sprintf("$%s#%d", d.Name, i)), d.Name,
				cur.Node(row[0].Node).ID, cur.Node(row[1].Node).ID, nil)
		}
		next, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("regular: materializing %q: %w", d.Name, err)
		}
		cur = next
	}
	return cur, nil
}

// Eval validates, materializes, and runs the final query on its plan.
func Eval(g *graph.Graph, p *Program, opts crpq.Options) (*crpq.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	aug, err := p.Materialize(g, opts)
	if err != nil {
		return nil, err
	}
	return crpq.EvalPlan(aug, p.Final, opts)
}

// Parse parses a multi-line program. Every non-empty, non-comment line is a
// CRPQ in the package crpq syntax; all lines but the last are definitions
// (their head name becomes the virtual edge label), and the last line is
// the final query. Lines starting with '#' are comments.
//
//	Vedge(x, y) :- Transfer(x, y), Transfer(y, x)
//	q(u, v)     :- Vedge*(u, v)
func Parse(input string) (*Program, error) {
	var lines []string
	for _, raw := range strings.Split(input, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("regular: empty program")
	}
	p := &Program{}
	for i, line := range lines {
		name, err := headName(line)
		if err != nil {
			return nil, err
		}
		q, err := crpq.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("regular: line %d: %w", i+1, err)
		}
		if i == len(lines)-1 {
			p.Final = q
		} else {
			p.Defs = append(p.Defs, Def{Name: name, Query: q})
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse parses or panics.
func MustParse(input string) *Program {
	p, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return p
}

func headName(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	if open <= 0 {
		return "", fmt.Errorf("regular: malformed head in %q", line)
	}
	return strings.TrimSpace(line[:open]), nil
}
