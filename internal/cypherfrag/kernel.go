package cypherfrag

import (
	"graphquery/internal/eval"
	"graphquery/internal/graph"
)

// Pairs evaluates the fragment pattern as endpoint pairs on g via the
// product-graph kernel: Compile lowers the pattern to an RPQ, and the
// kernel's frontier sweep — with whatever plan, parallelism and meter opts
// carries — does the path finding. Fragment patterns are pure
// label languages (node patterns contribute ε), so this is a lossless
// lowering: the answer is exactly the RPQ answer of Compile(p).
func Pairs(g *graph.Graph, p Pattern, opts eval.Options) ([][2]int, error) {
	return eval.PairsProduct(eval.CompileProduct(g, Compile(p)), opts)
}
