// Delta overlays: the mutable face of the otherwise immutable Graph.
//
// A Graph built by Builder is a fully materialized CSR snapshot. Apply
// layers a batch of mutations over it copy-on-write, producing a NEW Graph
// value that shares every untouched index with its predecessor: the dense
// node/edge/label slices are extended in place (safe under the single-writer
// chain discipline below), the ID maps and adjacency rows are overridden
// only where the batch touched them, and removals become tombstones so no
// index ever shifts. Readers of the predecessor keep a perfectly consistent
// view — this is the storage half of the store's MVCC snapshots.
//
// Chain discipline (enforced by internal/store's per-graph write lock):
// Apply must only be called on the newest version of a chain, by one
// goroutine at a time. Under that rule the in-place slice extension is safe:
// a predecessor's readers never index past their own length, appends touch
// only elements beyond every published length, and the new Graph pointer is
// published with a happens-before edge (atomic pointer store).
//
// Materialize folds a chain back into a fresh fully-indexed Graph — the
// compaction step — leaving live elements only. It is the ONLY operation
// that rebuilds the CSR; Apply maintains adjacency incrementally.
//
// What is derived from the graph survives a commit the same way. Apply keeps,
// per label it touches, the live edge count (so planner statistics are read,
// never collected: LabelEdgeCount) and the epoch of the label's last change
// (labelState), which is what lets the chain's neighbor tables (neighbors.go)
// serve every version whose edges under their label are the same.
package graph

import (
	"fmt"
	"sort"
)

// MutOp is the kind of one Mutation.
type MutOp uint8

// The mutation kinds Apply understands.
const (
	MutAddNode    MutOp = iota + 1
	MutRemoveNode       // cascades to incident edges
	MutAddEdge
	MutRemoveEdge
	MutSetNodeProp // Value Null deletes the property (ρ is partial)
	MutSetEdgeProp
)

// String renders the op for error messages and wire forms.
func (op MutOp) String() string {
	switch op {
	case MutAddNode:
		return "add_node"
	case MutRemoveNode:
		return "remove_node"
	case MutAddEdge:
		return "add_edge"
	case MutRemoveEdge:
		return "remove_edge"
	case MutSetNodeProp:
		return "set_node_prop"
	case MutSetEdgeProp:
		return "set_edge_prop"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// ParseMutOp resolves the wire name of a mutation op (see MutOp.String).
func ParseMutOp(s string) (MutOp, error) {
	switch s {
	case "add_node":
		return MutAddNode, nil
	case "remove_node":
		return MutRemoveNode, nil
	case "add_edge":
		return MutAddEdge, nil
	case "remove_edge":
		return MutRemoveEdge, nil
	case "set_node_prop":
		return MutSetNodeProp, nil
	case "set_edge_prop":
		return MutSetEdgeProp, nil
	}
	return 0, fmt.Errorf("graph: unknown mutation op %q", s)
}

// Mutation is one element of an Apply batch, addressed entirely by external
// IDs so a batch can be logged and replayed against any equivalent graph
// state regardless of dense index assignment.
type Mutation struct {
	Op MutOp
	// ID names the node (add/remove/set_node_prop) or edge
	// (add/remove/set_edge_prop) the op targets.
	ID string
	// Label is the node or edge label for the add ops.
	Label string
	// Src / Tgt are the endpoint node IDs of an added edge.
	Src, Tgt string
	// Props are the initial properties of an added node or edge.
	Props Props
	// Prop / Value carry a set-prop assignment; a Null Value deletes.
	Prop  string
	Value Value
}

// overlay is the per-version delta over the materialized base at the root
// of the version chain. Every map is cloned by Apply (O(|delta|), not
// O(|graph|)), so predecessor versions stay frozen.
type overlay struct {
	// nodeIDs / edgeIDs override the base ID maps; -1 is a tombstone for a
	// removed base element. A miss falls through to the base map.
	nodeIDs map[NodeID]int
	edgeIDs map[EdgeID]int

	// deadNodes / deadEdges are the tombstoned dense indexes.
	deadNodes map[int]struct{}
	deadEdges map[int]struct{}

	// outRows / inRows hold the effective adjacency rows of every node the
	// chain has touched (and every added node), sorted by (label ID, edge
	// index) exactly like a CSR region so the withLabel binary search works
	// unchanged. A miss falls through to the base CSR region.
	outRows map[int][]int
	inRows  map[int][]int

	// nodeProps / edgeProps override whole property maps (set-prop clones
	// the effective map, so base property maps are never written).
	nodeProps map[int]Props
	edgeProps map[int]Props

	// labelIDs interns labels first seen after the base build; their IDs
	// extend the base numbering. labelAdds records every added edge under
	// its label ID (dead edges are filtered at read), extending the base's
	// global per-label edge index.
	labelIDs  map[string]int
	labelAdds map[int][]int

	// labelStates holds, for every label whose edge set the chain has
	// changed, that label's state on this version; a miss means the label's
	// edges are exactly the base's.
	labelStates map[int]labelState

	liveNodes, liveEdges int

	// ops counts mutations applied since the base materialization — the
	// delta depth the store's compaction threshold watches.
	ops int
}

// labelState is one touched label on one version: how many live edges carry
// it — kept by addEdge / removeEdge, so statistics are never collected by a
// scan — and the epoch at which its edge set last changed. An epoch is drawn
// once per Apply batch from a counter the whole chain shares (neighborTables),
// so it names that batch: two versions that agree on a label's epoch have the
// same batch as the last one that touched the label, and therefore the same
// edges under it — whichever of the two is older. Epoch 0 is the base.
type labelState struct {
	edges int
	epoch uint64
}

func cloneIntSet(m map[int]struct{}) map[int]struct{} {
	c := make(map[int]struct{}, len(m)+1)
	for k := range m {
		c[k] = struct{}{}
	}
	return c
}

// clone copies every map one level deep; row slices and property maps are
// shared with the predecessor and replaced (never written) on change.
func (ov *overlay) clone() *overlay {
	c := &overlay{
		nodeIDs:   make(map[NodeID]int, len(ov.nodeIDs)+1),
		edgeIDs:   make(map[EdgeID]int, len(ov.edgeIDs)+1),
		deadNodes: cloneIntSet(ov.deadNodes),
		deadEdges: cloneIntSet(ov.deadEdges),
		outRows:   make(map[int][]int, len(ov.outRows)+1),
		inRows:    make(map[int][]int, len(ov.inRows)+1),
		nodeProps: make(map[int]Props, len(ov.nodeProps)+1),
		edgeProps: make(map[int]Props, len(ov.edgeProps)+1),
		labelIDs:  make(map[string]int, len(ov.labelIDs)+1),
		labelAdds: make(map[int][]int, len(ov.labelAdds)+1),

		labelStates: make(map[int]labelState, len(ov.labelStates)+1),

		liveNodes: ov.liveNodes,
		liveEdges: ov.liveEdges,
		ops:       ov.ops,
	}
	for k, v := range ov.nodeIDs {
		c.nodeIDs[k] = v
	}
	for k, v := range ov.edgeIDs {
		c.edgeIDs[k] = v
	}
	for k, v := range ov.outRows {
		c.outRows[k] = v
	}
	for k, v := range ov.inRows {
		c.inRows[k] = v
	}
	for k, v := range ov.nodeProps {
		c.nodeProps[k] = v
	}
	for k, v := range ov.edgeProps {
		c.edgeProps[k] = v
	}
	for k, v := range ov.labelIDs {
		c.labelIDs[k] = v
	}
	for k, v := range ov.labelAdds {
		c.labelAdds[k] = v
	}
	for k, v := range ov.labelStates {
		c.labelStates[k] = v
	}
	return c
}

func newOverlay(g *Graph) *overlay {
	return &overlay{
		nodeIDs:   make(map[NodeID]int),
		edgeIDs:   make(map[EdgeID]int),
		deadNodes: make(map[int]struct{}),
		deadEdges: make(map[int]struct{}),
		outRows:   make(map[int][]int),
		inRows:    make(map[int][]int),
		nodeProps: make(map[int]Props),
		edgeProps: make(map[int]Props),
		labelIDs:  make(map[string]int),
		labelAdds: make(map[int][]int),

		labelStates: make(map[int]labelState),

		liveNodes: g.NumNodes(),
		liveEdges: g.NumEdges(),
	}
}

// NodeAlive reports whether node index i is not tombstoned.
func (g *Graph) NodeAlive(i int) bool {
	if g.ov == nil {
		return true
	}
	_, dead := g.ov.deadNodes[i]
	return !dead
}

// EdgeAlive reports whether edge index i is not tombstoned.
func (g *Graph) EdgeAlive(i int) bool {
	if g.ov == nil {
		return true
	}
	_, dead := g.ov.deadEdges[i]
	return !dead
}

// NumLiveNodes returns the number of non-tombstoned nodes; equals NumNodes
// for materialized graphs.
func (g *Graph) NumLiveNodes() int {
	if g.ov == nil {
		return len(g.nodes)
	}
	return g.ov.liveNodes
}

// NumLiveEdges returns the number of non-tombstoned edges.
func (g *Graph) NumLiveEdges() int {
	if g.ov == nil {
		return len(g.edges)
	}
	return g.ov.liveEdges
}

// LabelEdgeCount returns the number of live edges carrying the label with
// the given ID, in O(1): from the base's per-label index, or from the count
// Apply keeps for every label the chain has touched.
func (g *Graph) LabelEdgeCount(labelID int) int {
	if g.ov != nil {
		if st, ok := g.ov.labelStates[labelID]; ok {
			return st.edges
		}
	}
	return g.baseLabelEdges(labelID)
}

// baseLabelEdges is the label's edge count on the chain's base; labels first
// seen by a mutation have none there.
func (g *Graph) baseLabelEdges(labelID int) int {
	if labelID+1 >= len(g.labelStart) {
		return 0
	}
	return g.labelStart[labelID+1] - g.labelStart[labelID]
}

// labelEpoch returns the epoch at which the label's edge set last changed on
// this version's history, 0 while it is the base's (see labelState).
func (g *Graph) labelEpoch(labelID int) uint64 {
	if g.ov == nil {
		return 0
	}
	return g.ov.labelStates[labelID].epoch
}

// DeltaOps returns the number of mutations layered over the materialized
// base of this graph's version chain — 0 for a freshly built graph. The
// store's compactor folds the chain when this crosses its threshold.
func (g *Graph) DeltaOps() int {
	if g.ov == nil {
		return 0
	}
	return g.ov.ops
}

// applier is the working state of one Apply batch: the new graph under
// construction plus per-batch copy-on-write tracking, so a row cloned once
// in this batch can be edited in place for the rest of it.
type applier struct {
	g          *Graph
	ov         *overlay
	touchedOut map[int]bool
	touchedIn  map[int]bool
	// epoch stamps the labels this batch touches; drawn on the first touch.
	epoch uint64
}

// Apply layers a batch of mutations over g and returns the resulting graph
// version. g itself is never modified (readers of g and of every ancestor
// are unaffected); on error the batch has no effect (the returned graph is
// nil and no committed version changed — batch atomicity). The receiver
// must be the newest version of its chain and Apply must not run
// concurrently with another Apply on the same chain; see the package
// comment on the chain discipline.
func (g *Graph) Apply(muts []Mutation) (*Graph, error) {
	ng := new(Graph)
	*ng = *g
	if g.ov == nil {
		ng.ov = newOverlay(g)
	} else {
		ng.ov = g.ov.clone()
	}
	a := &applier{g: ng, ov: ng.ov, touchedOut: map[int]bool{}, touchedIn: map[int]bool{}}
	for i := range muts {
		if err := a.apply(&muts[i]); err != nil {
			return nil, fmt.Errorf("graph: mutation %d (%s %q): %w", i, muts[i].Op, muts[i].ID, err)
		}
	}
	ng.ov.ops += len(muts)
	return ng, nil
}

func (a *applier) apply(m *Mutation) error {
	switch m.Op {
	case MutAddNode:
		return a.addNode(m)
	case MutRemoveNode:
		return a.removeNode(m)
	case MutAddEdge:
		return a.addEdge(m)
	case MutRemoveEdge:
		return a.removeEdgeByID(m)
	case MutSetNodeProp:
		return a.setNodeProp(m)
	case MutSetEdgeProp:
		return a.setEdgeProp(m)
	}
	return fmt.Errorf("unknown mutation op %d", m.Op)
}

func (a *applier) addNode(m *Mutation) error {
	id := NodeID(m.ID)
	if m.ID == "" {
		return fmt.Errorf("empty node ID")
	}
	if _, exists := a.g.NodeIndex(id); exists {
		return fmt.Errorf("node already exists")
	}
	idx := len(a.g.nodes)
	a.g.nodes = append(a.g.nodes, Node{ID: id, Label: m.Label, Props: m.Props.clone()})
	a.ov.nodeIDs[id] = idx
	a.setRow(idx, false, nil)
	a.setRow(idx, true, nil)
	a.ov.liveNodes++
	return nil
}

func (a *applier) removeNode(m *Mutation) error {
	idx, ok := a.g.NodeIndex(NodeID(m.ID))
	if !ok {
		return fmt.Errorf("no such node")
	}
	// Cascade: every live incident edge dies with the node. Snapshot the
	// rows first — removeEdge rewrites them as it goes. A self-loop appears
	// in both rows; the EdgeAlive check skips the second visit.
	incident := append(append([]int(nil), a.g.Out(idx)...), a.g.In(idx)...)
	for _, ei := range incident {
		if a.g.EdgeAlive(ei) {
			a.removeEdge(ei)
		}
	}
	a.ov.deadNodes[idx] = struct{}{}
	a.ov.nodeIDs[NodeID(m.ID)] = -1
	a.setRow(idx, false, nil)
	a.setRow(idx, true, nil)
	delete(a.ov.nodeProps, idx)
	a.ov.liveNodes--
	return nil
}

func (a *applier) addEdge(m *Mutation) error {
	id := EdgeID(m.ID)
	if m.ID == "" {
		return fmt.Errorf("empty edge ID")
	}
	if _, exists := a.g.EdgeIndex(id); exists {
		return fmt.Errorf("edge already exists")
	}
	si, ok := a.g.NodeIndex(NodeID(m.Src))
	if !ok {
		return fmt.Errorf("unknown source node %q", m.Src)
	}
	ti, ok := a.g.NodeIndex(NodeID(m.Tgt))
	if !ok {
		return fmt.Errorf("unknown target node %q", m.Tgt)
	}
	lid, label := a.ensureLabel(m.Label)
	ei := len(a.g.edges)
	a.g.edges = append(a.g.edges, Edge{ID: id, Label: label, Src: si, Tgt: ti, Props: m.Props.clone()})
	a.g.edgeLabel = append(a.g.edgeLabel, lid)
	a.ov.edgeIDs[id] = ei
	a.insertRow(si, false, ei, lid)
	a.insertRow(ti, true, ei, lid)
	a.ov.labelAdds[lid] = append(a.ov.labelAdds[lid], ei)
	a.ov.liveEdges++
	a.touchLabel(lid, +1)
	return nil
}

func (a *applier) removeEdgeByID(m *Mutation) error {
	ei, ok := a.g.EdgeIndex(EdgeID(m.ID))
	if !ok {
		return fmt.Errorf("no such edge")
	}
	a.removeEdge(ei)
	return nil
}

// removeEdge tombstones edge ei (known live) and unlinks it from both
// endpoint rows.
func (a *applier) removeEdge(ei int) {
	e := &a.g.edges[ei]
	a.ov.deadEdges[ei] = struct{}{}
	a.ov.edgeIDs[e.ID] = -1
	lid := a.g.edgeLabel[ei]
	a.deleteRow(e.Src, false, ei, lid)
	a.deleteRow(e.Tgt, true, ei, lid)
	delete(a.ov.edgeProps, ei)
	a.ov.liveEdges--
	a.touchLabel(lid, -1)
}

// touchLabel moves label lid's live edge count by delta and stamps it with
// this batch's epoch.
func (a *applier) touchLabel(lid, delta int) {
	st, ok := a.ov.labelStates[lid]
	if !ok {
		st.edges = a.g.baseLabelEdges(lid)
	}
	if a.epoch == 0 {
		a.epoch = a.g.neighbors.epochs.Add(1)
	}
	a.ov.labelStates[lid] = labelState{edges: st.edges + delta, epoch: a.epoch}
}

func (a *applier) setNodeProp(m *Mutation) error {
	idx, ok := a.g.NodeIndex(NodeID(m.ID))
	if !ok {
		return fmt.Errorf("no such node")
	}
	if m.Prop == "" {
		return fmt.Errorf("empty property name")
	}
	cur, ok := a.ov.nodeProps[idx]
	if !ok {
		cur = a.g.nodes[idx].Props
	}
	a.ov.nodeProps[idx] = setProp(cur, m.Prop, m.Value)
	return nil
}

func (a *applier) setEdgeProp(m *Mutation) error {
	idx, ok := a.g.EdgeIndex(EdgeID(m.ID))
	if !ok {
		return fmt.Errorf("no such edge")
	}
	if m.Prop == "" {
		return fmt.Errorf("empty property name")
	}
	cur, ok := a.ov.edgeProps[idx]
	if !ok {
		cur = a.g.edges[idx].Props
	}
	a.ov.edgeProps[idx] = setProp(cur, m.Prop, m.Value)
	return nil
}

// setProp returns a fresh property map with name set (or deleted, for a
// Null value); cur is never written — ancestor versions may share it.
func setProp(cur Props, name string, v Value) Props {
	np := cur.clone()
	if v.IsNull() {
		delete(np, name)
		return np
	}
	if np == nil {
		np = Props{}
	}
	np[name] = v
	return np
}

// ensureLabel interns an edge label, extending the base numbering for
// labels first seen after the base build. Returns the ID and the canonical
// interned string.
func (a *applier) ensureLabel(label string) (int, string) {
	if id, ok := a.g.LabelID(label); ok {
		return id, a.g.labels[id]
	}
	id := len(a.g.labels)
	a.g.labels = append(a.g.labels, label)
	a.ov.labelIDs[label] = id
	return id, label
}

// setRow publishes row as node n's effective adjacency in one direction and
// marks it owned by this batch.
func (a *applier) setRow(n int, in bool, row []int) {
	if in {
		a.ov.inRows[n] = row
		a.touchedIn[n] = true
	} else {
		a.ov.outRows[n] = row
		a.touchedOut[n] = true
	}
}

// mutableRow returns node n's effective row, cloned the first time this
// batch touches it so ancestor versions keep their own copy.
func (a *applier) mutableRow(n int, in bool) []int {
	rows, touched := a.ov.outRows, a.touchedOut
	if in {
		rows, touched = a.ov.inRows, a.touchedIn
	}
	if touched[n] {
		return rows[n]
	}
	var src []int
	if r, ok := rows[n]; ok {
		src = r
	} else {
		// Base CSR region: already (label ID, edge index)-sorted.
		c := &a.g.outCSR
		if in {
			c = &a.g.inCSR
		}
		src = c.edges[c.start[n]:c.start[n+1]]
	}
	clone := append(make([]int, 0, len(src)+1), src...)
	if in {
		a.ov.inRows[n] = clone
		a.touchedIn[n] = true
	} else {
		a.ov.outRows[n] = clone
		a.touchedOut[n] = true
	}
	return clone
}

// insertRow splices edge ei (label lid) into node n's row at its
// (label ID, edge index)-sorted position. ei is always the largest edge
// index in the graph, so it lands at the end of its label's run.
func (a *applier) insertRow(n int, in bool, ei, lid int) {
	row := a.mutableRow(n, in)
	pos := sort.Search(len(row), func(i int) bool { return a.g.edgeLabel[row[i]] > lid })
	row = append(row, 0)
	copy(row[pos+1:], row[pos:])
	row[pos] = ei
	a.setRow(n, in, row)
}

// deleteRow removes edge ei (label lid) from node n's row, preserving
// order. The edge is known to be present.
func (a *applier) deleteRow(n int, in bool, ei, lid int) {
	row := a.mutableRow(n, in)
	run := labelRun(row, a.g.edgeLabel, lid)
	i := run[0] + sort.SearchInts(row[run[0]:run[1]], ei)
	copy(row[i:], row[i+1:])
	a.setRow(n, in, row[:len(row)-1])
}

// labelRun locates the [lo, hi) run of label lid inside a
// (label ID, edge index)-sorted row — the same search csr.withLabel does.
func labelRun(row, edgeLabel []int, lid int) [2]int {
	lo := sort.Search(len(row), func(i int) bool { return edgeLabel[row[i]] >= lid })
	hi := lo + sort.Search(len(row)-lo, func(i int) bool { return edgeLabel[row[lo+i]] > lid })
	return [2]int{lo, hi}
}

// Materialize folds the version chain into a fresh fully-indexed Graph
// holding live elements only — the store's compaction step. A graph with no
// overlay is returned unchanged.
func (g *Graph) Materialize() (*Graph, error) {
	if g.ov == nil {
		return g, nil
	}
	b := NewBuilder()
	for i := 0; i < g.NumNodes(); i++ {
		if !g.NodeAlive(i) {
			continue
		}
		n := g.Node(i)
		b.AddNode(n.ID, n.Label, n.Props)
	}
	for ei := 0; ei < g.NumEdges(); ei++ {
		if !g.EdgeAlive(ei) {
			continue
		}
		e := g.Edge(ei)
		b.AddEdge(e.ID, e.Label, g.nodes[e.Src].ID, g.nodes[e.Tgt].ID, e.Props)
	}
	return b.Build()
}
