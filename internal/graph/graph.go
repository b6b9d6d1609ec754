// Package graph implements the two graph data models of Section 2 of the
// paper: edge-labeled graphs (Definition 4) and labeled property graphs
// (Definition 6). A single Graph type covers both: an edge-labeled graph is a
// property graph whose nodes carry no labels or properties, and the paper's
// restriction operation λ|E is the identity on this representation.
//
// Nodes and edges have external string identifiers (as in the paper's a1–a6,
// t1–t10) and are additionally addressable by dense integer indexes, which is
// what the evaluation packages use.
package graph

import (
	"fmt"
	"sort"
)

// NodeID is an external node identifier (an element of the paper's set Nodes).
type NodeID string

// EdgeID is an external edge identifier (an element of the paper's set Edges).
type EdgeID string

// Props is a property map ρ restricted to one object: property name → value.
type Props map[string]Value

func (p Props) clone() Props {
	if len(p) == 0 {
		return nil
	}
	c := make(Props, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Node is a node of a property graph.
type Node struct {
	ID    NodeID
	Label string
	Props Props
}

// Edge is a directed edge of a property graph: src --label--> tgt.
// Src and Tgt are dense node indexes into the owning Graph.
type Edge struct {
	ID    EdgeID
	Label string
	Src   int
	Tgt   int
	Props Props
}

// Graph is a labeled property graph G = (N, E, src, tgt, λ, ρ)
// (Definition 6). It also serves as an edge-labeled graph (Definition 4) by
// simply ignoring node labels and all properties, mirroring the paper's
// observation that (N, E, src, tgt, λ|E) is an edge-labeled graph.
//
// A Graph is immutable once built (use Builder); all read methods are safe
// for concurrent use.
type Graph struct {
	nodes []Node
	edges []Edge

	nodeByID map[NodeID]int
	edgeByID map[EdgeID]int

	labels  []string       // sorted distinct edge labels; the slice index is the label ID
	labelID map[string]int // interned edge label -> dense label ID

	edgeLabel []int // edge index -> label ID

	// Label-indexed CSR adjacency, one per direction (dirOut, dirIn): the
	// graph's only per-node index of its edges (Section 6.2 evaluation
	// support). A node's row is its region, sorted by (label ID, edge index),
	// so a transition guard is intersected against exactly the matching edges
	// by one binary search (labelRun).
	adj [2]csr

	// Global per-label edge index: labelEdges holds all edge indexes grouped
	// by label ID (ascending within each group); labelStart[l]..labelStart[l+1]
	// delimits label l's group.
	labelEdges []int
	labelStart []int

	// neighbors is the version chain's cache of per-label neighbor tables
	// (neighbors.go): one value per materialized base, set by Build and
	// shared by every version Apply derives from it.
	neighbors *neighborTables

	// quoted holds the IDs of the base's nodes as JSON string literals
	// (quoted.go): built by Build, shared down the chain the same way, and
	// never written afterwards.
	quoted quotedIDs

	// ov, when non-nil, layers a mutation delta over the materialized base
	// of this graph's version chain (see overlay.go): the dense slices above
	// are extended past the base's length, the maps and CSR indexes remain
	// the base's and are consulted through the overlay's overrides. A graph
	// built by Builder has ov == nil and pays no overlay cost on reads.
	ov *overlay
}

// csr is a flat compressed-sparse-row adjacency index: edges holds edge
// indexes grouped by node and, within a node, sorted by (label ID, edge
// index); start[n]..start[n+1] delimits node n's region.
type csr struct {
	edges []int
	start []int
}

// The two directions of adjacency: a node's row in direction dirOut holds
// the edges leaving it, in direction dirIn the edges entering it.
const (
	dirOut = 0
	dirIn  = 1
)

// row returns node n's edges in direction d, in (label ID, edge index)
// order: the overlay's row once the version chain has touched the node, its
// CSR region otherwise. Every adjacency read goes through it.
func (g *Graph) row(n, d int) []int {
	if g.ov != nil {
		if r, ok := g.ov.rows[d][n]; ok {
			return r
		}
	}
	c := &g.adj[d]
	return c.edges[c.start[n]:c.start[n+1]]
}

// labelRun locates the [lo, hi) run of label lid inside a row.
func (g *Graph) labelRun(row []int, lid int) (lo, hi int) {
	lo = sort.Search(len(row), func(i int) bool { return g.edgeLabel[row[i]] >= lid })
	hi = lo + sort.Search(len(row)-lo, func(i int) bool { return g.edgeLabel[row[lo+i]] > lid })
	return lo, hi
}

// NumNodes returns |N|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with dense index i.
func (g *Graph) Node(i int) Node {
	n := g.nodes[i]
	if g.ov != nil {
		if p, ok := g.ov.nodeProps[i]; ok {
			n.Props = p
		}
	}
	return n
}

// NodeID returns the ID of the node with dense index i — Node(i).ID without
// the copy and the overlay property lookup. Rows bound for the wire take
// AppendNodeIDJSON instead.
func (g *Graph) NodeID(i int) NodeID { return g.nodes[i].ID }

// Edge returns the edge with dense index i.
func (g *Graph) Edge(i int) Edge {
	e := g.edges[i]
	if g.ov != nil {
		if p, ok := g.ov.edgeProps[i]; ok {
			e.Props = p
		}
	}
	return e
}

// EdgeSrc returns edge i's source node index without copying the Edge
// struct — kernel sweep loops read millions of endpoints per query.
func (g *Graph) EdgeSrc(i int) int { return g.edges[i].Src }

// EdgeTgt returns edge i's target node index, see EdgeSrc.
func (g *Graph) EdgeTgt(i int) int { return g.edges[i].Tgt }

// NodeIndex resolves an external node ID to its dense index.
func (g *Graph) NodeIndex(id NodeID) (int, bool) {
	if g.ov != nil {
		if i, ok := g.ov.nodeIDs[id]; ok {
			return i, i >= 0
		}
	}
	i, ok := g.nodeByID[id]
	return i, ok
}

// EdgeIndex resolves an external edge ID to its dense index.
func (g *Graph) EdgeIndex(id EdgeID) (int, bool) {
	if g.ov != nil {
		if i, ok := g.ov.edgeIDs[id]; ok {
			return i, i >= 0
		}
	}
	i, ok := g.edgeByID[id]
	return i, ok
}

// MustNode resolves id or panics; intended for tests and examples where the
// node is known to exist.
func (g *Graph) MustNode(id NodeID) int {
	i, ok := g.NodeIndex(id)
	if !ok {
		panic(fmt.Sprintf("graph: no node %q", id))
	}
	return i
}

// MustEdge resolves id or panics; intended for tests and examples.
func (g *Graph) MustEdge(id EdgeID) int {
	i, ok := g.EdgeIndex(id)
	if !ok {
		panic(fmt.Sprintf("graph: no edge %q", id))
	}
	return i
}

// Out returns the indexes of edges leaving node n, in (label ID, edge
// index) order on every version of the graph. The returned slice must not
// be modified.
func (g *Graph) Out(n int) []int { return g.row(n, dirOut) }

// In returns the indexes of edges entering node n, in the order Out
// documents. The returned slice must not be modified.
func (g *Graph) In(n int) []int { return g.row(n, dirIn) }

// OutDegree returns the number of edges leaving node n.
func (g *Graph) OutDegree(n int) int { return len(g.Out(n)) }

// InDegree returns the number of edges entering node n.
func (g *Graph) InDegree(n int) int { return len(g.In(n)) }

// EdgeLabels returns the sorted set of distinct edge labels in the graph.
// The slice index of a label is its dense label ID (see LabelID).
func (g *Graph) EdgeLabels() []string { return g.labels }

// NumLabels returns the number of distinct edge labels.
func (g *Graph) NumLabels() int { return len(g.labels) }

// LabelID resolves an edge label to its dense ID; ok is false when no edge
// of the graph carries the label. IDs are assigned in sorted label order
// (labels first seen by a mutation extend the numbering at the end), so
// they are stable across serialization round-trips of the same graph and
// across every version of one chain.
func (g *Graph) LabelID(lab string) (int, bool) {
	if g.ov != nil {
		if id, ok := g.ov.labelIDs[lab]; ok {
			return id, true
		}
	}
	id, ok := g.labelID[lab]
	return id, ok
}

// LabelName returns the label with dense ID id.
func (g *Graph) LabelName(id int) string { return g.labels[id] }

// EdgeLabelID returns the dense label ID of edge ei.
func (g *Graph) EdgeLabelID(ei int) int { return g.edgeLabel[ei] }

// OutWithLabel returns the indexes of edges leaving node n whose label has
// the given ID, in ascending edge-index order: the label's run of Out(n).
// The returned slice aliases the graph's row and must not be modified.
func (g *Graph) OutWithLabel(n, labelID int) []int { return g.withLabel(n, dirOut, labelID) }

// InWithLabel is OutWithLabel over the edges entering node n.
func (g *Graph) InWithLabel(n, labelID int) []int { return g.withLabel(n, dirIn, labelID) }

func (g *Graph) withLabel(n, d, labelID int) []int {
	row := g.row(n, d)
	lo, hi := g.labelRun(row, labelID)
	return row[lo:hi]
}

// EdgesWithLabelID returns all live edge indexes carrying the label with the
// given ID, ascending. The returned slice aliases the graph's index and must
// not be modified — except for a label the version chain has touched, where
// it is freshly built from the base index minus tombstones plus the
// overlay's additions.
func (g *Graph) EdgesWithLabelID(labelID int) []int {
	if g.labelEpoch(labelID) == 0 {
		return g.labelEdges[g.labelStart[labelID]:g.labelStart[labelID+1]]
	}
	out := make([]int, 0, g.LabelEdgeCount(labelID))
	if labelID < len(g.labelStart)-1 {
		for _, ei := range g.labelEdges[g.labelStart[labelID]:g.labelStart[labelID+1]] {
			if g.EdgeAlive(ei) {
				out = append(out, ei)
			}
		}
	}
	// Added edges have indexes past every base edge, so appending keeps the
	// ascending order.
	for _, ei := range g.ov.labelAdds[labelID] {
		if g.EdgeAlive(ei) {
			out = append(out, ei)
		}
	}
	return out
}

// NodeProp returns ρ(node i, name); the ok result is false when the partial
// function ρ is undefined there.
func (g *Graph) NodeProp(i int, name string) (Value, bool) {
	if g.ov != nil {
		if p, ok := g.ov.nodeProps[i]; ok {
			v, ok := p[name]
			return v, ok
		}
	}
	v, ok := g.nodes[i].Props[name]
	return v, ok
}

// EdgeProp returns ρ(edge i, name); the ok result is false when ρ is
// undefined there.
func (g *Graph) EdgeProp(i int, name string) (Value, bool) {
	if g.ov != nil {
		if p, ok := g.ov.edgeProps[i]; ok {
			v, ok := p[name]
			return v, ok
		}
	}
	v, ok := g.edges[i].Props[name]
	return v, ok
}

// Nodes returns all live node indexes whose label is lab; lab == "" matches
// every node.
func (g *Graph) NodesWithLabel(lab string) []int {
	var out []int
	for i := range g.nodes {
		if (lab == "" || g.nodes[i].Label == lab) && g.NodeAlive(i) {
			out = append(out, i)
		}
	}
	return out
}

// EdgesWithLabel returns all live edge indexes whose label is lab; lab == ""
// matches every edge. Known labels are answered from the per-label index in
// O(1) on a materialized graph; the returned slice must not be modified.
func (g *Graph) EdgesWithLabel(lab string) []int {
	if lab == "" {
		out := make([]int, 0, len(g.edges))
		for i := range g.edges {
			if g.EdgeAlive(i) {
				out = append(out, i)
			}
		}
		return out
	}
	id, ok := g.LabelID(lab)
	if !ok {
		return nil
	}
	return g.EdgesWithLabelID(id)
}

// Object addresses a node or an edge of a graph uniformly ("objects" in the
// paper's terminology, "elements" in GQL/SQL-PGQ). The zero Object is the
// node with index 0; use MakeNodeObject/MakeEdgeObject.
type Object struct {
	isEdge bool
	idx    int
}

// MakeNodeObject returns the Object addressing node index i.
func MakeNodeObject(i int) Object { return Object{isEdge: false, idx: i} }

// MakeEdgeObject returns the Object addressing edge index i.
func MakeEdgeObject(i int) Object { return Object{isEdge: true, idx: i} }

// IsEdge reports whether o addresses an edge.
func (o Object) IsEdge() bool { return o.isEdge }

// IsNode reports whether o addresses a node.
func (o Object) IsNode() bool { return !o.isEdge }

// Index returns the dense node or edge index addressed by o.
func (o Object) Index() int { return o.idx }

// Label returns λ(o) in g.
func (g *Graph) Label(o Object) string {
	if o.isEdge {
		return g.edges[o.idx].Label
	}
	return g.nodes[o.idx].Label
}

// Prop returns ρ(o, name) in g.
func (g *Graph) Prop(o Object, name string) (Value, bool) {
	if o.isEdge {
		return g.EdgeProp(o.idx, name)
	}
	return g.NodeProp(o.idx, name)
}

// ObjectID renders the external identifier of o.
func (g *Graph) ObjectID(o Object) string {
	if o.isEdge {
		return string(g.edges[o.idx].ID)
	}
	return string(g.nodes[o.idx].ID)
}

// Builder assembles a Graph. Methods record the first error encountered and
// become no-ops afterwards; check Err or the error from Build.
type Builder struct {
	g   Graph
	err error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{g: Graph{
		nodeByID: make(map[NodeID]int),
		edgeByID: make(map[EdgeID]int),
	}}
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// AddNode adds a node with the given external ID, label, and properties.
// Props may be nil. Adding a duplicate ID is an error.
func (b *Builder) AddNode(id NodeID, label string, props Props) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.g.nodeByID[id]; dup {
		b.fail("graph: duplicate node ID %q", id)
		return b
	}
	b.g.nodeByID[id] = len(b.g.nodes)
	b.g.nodes = append(b.g.nodes, Node{ID: id, Label: label, Props: props.clone()})
	return b
}

// AddEdge adds a directed edge src --label--> tgt with the given external ID.
// Both endpoints must have been added already. Props may be nil.
func (b *Builder) AddEdge(id EdgeID, label string, src, tgt NodeID, props Props) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.g.edgeByID[id]; dup {
		b.fail("graph: duplicate edge ID %q", id)
		return b
	}
	si, ok := b.g.nodeByID[src]
	if !ok {
		b.fail("graph: edge %q references unknown source node %q", id, src)
		return b
	}
	ti, ok := b.g.nodeByID[tgt]
	if !ok {
		b.fail("graph: edge %q references unknown target node %q", id, tgt)
		return b
	}
	b.g.edgeByID[id] = len(b.g.edges)
	b.g.edges = append(b.g.edges, Edge{ID: id, Label: label, Src: si, Tgt: ti, Props: props.clone()})
	return b
}

// Build finalizes the graph, computing its indexes: the interned label
// numbering, the per-label edge index, the label-indexed CSR adjacency in
// both directions and the nodes' IDs as JSON literals. The Builder must not
// be used afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := b.g
	labelSet := make(map[string]struct{})
	for ei := range g.edges {
		labelSet[g.edges[ei].Label] = struct{}{}
	}
	g.labels = make([]string, 0, len(labelSet))
	for l := range labelSet {
		g.labels = append(g.labels, l)
	}
	sort.Strings(g.labels)
	// Intern: one labels slice + ID map shared by every index. Label IDs
	// follow sorted order, so they are stable across serialization round
	// trips of the same label set. Edge labels are rewritten to the canonical
	// interned string so duplicates share one backing array.
	g.labelID = make(map[string]int, len(g.labels))
	for id, l := range g.labels {
		g.labelID[l] = id
	}
	g.edgeLabel = make([]int, len(g.edges))
	for ei := range g.edges {
		e := &g.edges[ei]
		id := g.labelID[e.Label]
		e.Label = g.labels[id]
		g.edgeLabel[ei] = id
	}
	g.labelStart, g.labelEdges = fileByKey(len(g.labels), len(g.edges), g.EdgeLabelID, identity)
	// Filing the label index, which lists edges by (label ID, edge index),
	// under each edge's endpoint keeps that order inside every region.
	byLabel := func(i int) int { return g.labelEdges[i] }
	for d, end := range [2]func(ei int) int{dirOut: g.EdgeSrc, dirIn: g.EdgeTgt} {
		endOf := func(i int) int { return end(g.labelEdges[i]) }
		g.adj[d].start, g.adj[d].edges = fileByKey(len(g.nodes), len(g.edges), endOf, byLabel)
	}
	g.neighbors = &neighborTables{tables: map[neighborKey]*NeighborTable{}}
	g.quoted = quoteIDs(g.nodes)
	b.g = Graph{} // prevent reuse
	return &g, nil
}

// fileByKey files items 0..m-1 under the key at(i) ∈ [0, n) of each by a
// stable counting sort: the values val(i) of the items keyed v are
// vals[off[v]:off[v+1]], in item order. Build files its edges under their
// labels (the label index), then that index under each edge's endpoint (the
// CSR regions); a neighbor table files one label's edges under one
// endpoint, pointing at the other.
func fileByKey[T int | int32](n, m int, at func(i int) int, val func(i int) T) (off, vals []T) {
	off = make([]T, n+1)
	for i := 0; i < m; i++ {
		off[at(i)+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	vals = make([]T, m)
	next := append([]T(nil), off[:n]...)
	for i := 0; i < m; i++ {
		v := at(i)
		vals[next[v]] = val(i)
		next[v]++
	}
	return off, vals
}

func identity(i int) int { return i }

// MustBuild is Build that panics on error; for tests, examples, and
// generators of known-valid graphs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
