package gql

import (
	"fmt"

	"graphquery/internal/automata"
	"graphquery/internal/coregql"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
)

// Pairs computes the endpoint pairs of the pattern's match set —
// {(src(ρ), tgt(ρ)) | ρ matches π} as sorted, deduplicated (u,v) index
// pairs: on the product-graph kernel when the pattern is regular
// (coregql.Regular), else from EvalPattern's matches (coregql.PairsOf).
// A pattern EvalPattern refuses with ErrEmptyIteration is refused on both
// paths: its match set is infinite.
func Pairs(g *graph.Graph, p Pattern, opts eval.Options) ([][2]int, error) {
	if infinite, _, _ := emptyIterations(p); infinite {
		return nil, ErrEmptyIteration
	}
	return coregql.PairsOf(g, p, opts, EvalPattern)
}

// ToCore lowers a gql pattern onto the CoreGQL fragment (Section 4's
// design kernel): CoreGQL has no label atoms, so patterns using them are
// rejected rather than silently widened.
func ToCore(p Pattern) (coregql.Pattern, error) {
	var err error
	fail := func(what string) {
		if err == nil {
			err = fmt.Errorf("gql: pattern does not fit the CoreGQL fragment (%s)", what)
		}
	}
	core := automata.Map(p, func(a Pattern) coregql.Pattern {
		switch n := a.(type) {
		case NodeP:
			if n.Label != "" {
				fail("node labels")
			}
			return coregql.NodePat{Var: n.Var}
		case EdgeP:
			if n.Label != "" {
				fail("edge labels")
			}
			return coregql.EdgePat{Var: n.Var}
		default:
			c := n.(CondP)
			sub, subErr := ToCore(c.Sub)
			if subErr != nil && err == nil {
				err = subErr
			}
			return coregql.CondPat{Sub: sub, Cond: c.Cond}
		}
	})
	if err != nil {
		return nil, err
	}
	return core, nil
}
