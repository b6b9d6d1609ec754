package gql

import (
	"fmt"

	"graphquery/internal/coregql"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
)

// ForAllOnPath implements the ⟨∀π′ ⇒ θ⟩ conditions of Section 5.2
// ("Matching on Matched Paths", the committee's for-each-segment proposal):
// given a path p already matched by some pattern, π′ is matched on p only —
// i.e. on the linearization of p, so matches are segments of p — and every
// match must satisfy θ.
//
// The NP-hardness the paper warns about (the all-distinct variant
// ⟨∀(u)→*(v) ⇒ u.k ≠ v.k⟩) arises at the outer level: deciding whether any
// matched path satisfies the ∀-condition. ForAllOnPath itself checks a
// single candidate path.
func ForAllOnPath(g *graph.Graph, p gpath.Path, inner Pattern, theta coregql.Condition, opts Options) (bool, error) {
	lin, back, err := linearize(g, p)
	if err != nil {
		return false, err
	}
	ms, err := EvalPattern(lin, inner, opts)
	if err != nil {
		return false, err
	}
	for _, m := range ms {
		// Map bindings back to the original graph for θ; properties were
		// copied into the linearization, so evaluating θ on lin with the
		// lin bindings is equivalent — but mapping back keeps θ's label
		// tests faithful to the original too.
		flat := make(map[string]graph.Object, len(m.Binding))
		ok := true
		for v, val := range m.Binding {
			if val.IsList {
				ok = false // θ over group variables is not defined
				break
			}
			flat[v] = back(val.One)
		}
		if !ok {
			continue
		}
		if !theta.Holds(g, flat) {
			return false, nil
		}
	}
	return true, nil
}

// FilterForAll keeps the paths satisfying ⟨∀π′ ⇒ θ⟩.
func FilterForAll(g *graph.Graph, paths []gpath.Path, inner Pattern, theta coregql.Condition, opts Options) ([]gpath.Path, error) {
	var out []gpath.Path
	for _, p := range paths {
		ok, err := ForAllOnPath(g, p, inner, theta, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, p)
		}
	}
	return out, nil
}

// linearize builds the path graph of p: a simple chain with one fresh node
// per node occurrence and one fresh edge per edge occurrence, copying
// labels and properties, so that pattern matches on the chain are exactly
// the segment matches on p. back maps chain objects to original objects.
func linearize(g *graph.Graph, p gpath.Path) (*graph.Graph, func(graph.Object) graph.Object, error) {
	if !p.StartsWithNode() || !p.EndsWithNode() {
		return nil, nil, fmt.Errorf("gql: ∀-conditions apply to node-to-node paths, got %s", p.Format(g))
	}
	b := graph.NewBuilder()
	var nodeOrig []int // chain position -> original node index
	var edgeOrig []int // chain edge -> original edge index
	pos := 0
	for i := 0; i < p.NumObjects(); i++ {
		o := p.Object(i)
		if o.IsNode() {
			orig := g.Node(o.Index())
			b.AddNode(graph.NodeID(fmt.Sprintf("pos%d", pos)), orig.Label, orig.Props)
			nodeOrig = append(nodeOrig, o.Index())
			pos++
		}
	}
	epos := 0
	np := 0
	for i := 0; i < p.NumObjects(); i++ {
		o := p.Object(i)
		if o.IsNode() {
			np++
			continue
		}
		orig := g.Edge(o.Index())
		b.AddEdge(graph.EdgeID(fmt.Sprintf("seg%d", epos)), orig.Label,
			graph.NodeID(fmt.Sprintf("pos%d", np-1)), graph.NodeID(fmt.Sprintf("pos%d", np)),
			orig.Props)
		edgeOrig = append(edgeOrig, o.Index())
		epos++
	}
	lin, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	back := func(o graph.Object) graph.Object {
		if o.IsEdge() {
			return graph.MakeEdgeObject(edgeOrig[o.Index()])
		}
		return graph.MakeNodeObject(nodeOrig[o.Index()])
	}
	return lin, back, nil
}
