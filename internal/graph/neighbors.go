package graph

import (
	"math"
	"sync"
	"sync/atomic"
)

// Neighbor tables are the fourth index of a graph, after the CSR adjacency,
// the reverse CSR and the per-label edge lists, and the only one that is not
// built with the graph: one label's adjacency in one direction, flattened to
// neighbor node ids so a sweep loop does no binary search and loads no Edge.
// Building one costs O(|N| + |E_label|), which an anchored read touching a
// handful of states must never pay, so they follow a rent-or-buy rule (pg's
// sweeps are the tenant): scanning through the label index deposits the
// rows looked up and the entries examined on a balance, a table is built
// only when the balance covers its cost, and the cost is withdrawn.
//
// Tables and balance belong to the version chain, not to a version or a
// query: Build hangs one neighborTables on the base and Apply's struct copy
// hands the same pointer down the chain, so what one revision bought serves
// every other revision whose edges under that label are the same — which the
// label's epoch decides exactly (labelState) — and a commit costs the tables
// of the labels it touched, not all of them. Nodes a commit adds get empty
// rows appended when a version that has them asks (valid). Materialize goes
// through Build and so starts a chain with an empty cache and no balance.

// NeighborTable is one label's adjacency in one direction over one state of
// that label's edge set. Readers never see it change.
type NeighborTable struct {
	off   []int32
	to    []int32
	epoch uint64 // the label's epoch on the version the table was built from
}

// Neighbors returns the nodes one edge of the table's label away from v in
// the table's direction, with multiplicity, in ascending edge order — what
// OutWithLabel / InWithLabel give, endpoints resolved. v must be a node of
// the graph the table was obtained from (NeighborTable, BuyNeighborTable),
// which is what lets the sweep loops call this with no range test of their
// own.
func (t *NeighborTable) Neighbors(v int) []int32 { return t.to[t.off[v]:t.off[v+1]] }

// Degree returns len(Neighbors(v)) from the offsets alone: what a scan over
// many nodes that only asks whether each has a neighbor reads, in order.
func (t *NeighborTable) Degree(v int) int { return int(t.off[v+1] - t.off[v]) }

type neighborKey struct {
	label int
	in    bool
}

// neighborTables is one version chain's table cache: at most one table per
// (label, direction), the rent balance, and the epoch counter Apply stamps
// touched labels from.
type neighborTables struct {
	epochs  atomic.Uint64
	balance atomic.Int64 // rows and entries read through the label index, less what tables cost

	mu     sync.Mutex // guards tables; held while one is built, so it is built once
	tables map[neighborKey]*NeighborTable
}

// NeighborTable returns the chain's table for the label in the given scan
// direction (in: neighbors are edge sources) when one exists that was built
// from this version's edges under the label, nil otherwise. It never builds.
// The table has a row for every node of g.
func (g *Graph) NeighborTable(labelID int, in bool) *NeighborTable {
	c := g.neighbors
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.valid(g, neighborKey{labelID, in})
}

// valid returns the table cached under key if it holds g's edges under the
// label, nil otherwise; the caller holds mu. A version with more nodes than
// the one the table was built from gets it with empty rows appended for
// them: no edge under the label touches a node added since, or the label's
// epoch would have moved. Appending writes past every length handed out
// before, so holders of the shorter table — versions with fewer nodes — are
// not disturbed, and the rows cost O(nodes added), once.
func (c *neighborTables) valid(g *Graph, key neighborKey) *NeighborTable {
	t := c.tables[key]
	if t == nil || t.epoch != g.labelEpoch(key.label) {
		return nil
	}
	if n := g.NumNodes(); len(t.off) <= n {
		off := t.off
		for len(off) <= n {
			off = append(off, int32(len(t.to)))
		}
		t = &NeighborTable{off: off, to: t.to, epoch: t.epoch}
		c.tables[key] = t
	}
	return t
}

// PayRent deposits what a sweep read through the label index where a
// neighbor table would have served — rows looked up plus adjacency entries
// examined — on the chain's balance, and reports whether the balance could
// now cover a table: none costs less than |N|, so below that
// BuyNeighborTable is not worth calling.
func (g *Graph) PayRent(reads int64) (mayBuy bool) {
	return g.neighbors.balance.Add(reads) >= int64(g.NumNodes())
}

// BuyNeighborTable returns the table NeighborTable would, building it from
// this version when the chain has none for the label's current edges and the
// balance covers its cost, |N| + |E_label|; built reports that this call did.
// The new table replaces one built at another epoch of the label. Since
// every build is paid for out of entries actually rented, a label that every
// commit rewrites cannot cost more in rebuilds than the scans that rented.
func (g *Graph) BuyNeighborTable(labelID int, in bool) (t *NeighborTable, built bool) {
	c, key := g.neighbors, neighborKey{labelID, in}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.valid(g, key); t != nil {
		return t, false
	}
	cost := int64(g.NumNodes() + g.LabelEdgeCount(labelID))
	if cost > math.MaxInt32 || c.balance.Load() < cost {
		return nil, false // ids beyond int32 keep scanning the label index
	}
	c.balance.Add(-cost)
	t = buildNeighborTable(g, labelID, in)
	c.tables[key] = t
	return t, true
}

// buildNeighborTable files the label's live edges under their source,
// pointing at their target (in: the reverse): a stable counting sort of the
// label's ascending edge list, so each node's neighbors keep the order the
// label index gives them.
func buildNeighborTable(g *Graph, labelID int, in bool) *NeighborTable {
	n := g.NumNodes()
	edges := g.EdgesWithLabelID(labelID)
	t := &NeighborTable{off: make([]int32, n+1), to: make([]int32, len(edges)), epoch: g.labelEpoch(labelID)}
	at, to := g.EdgeSrc, g.EdgeTgt
	if in {
		at, to = to, at
	}
	for _, ei := range edges {
		t.off[at(ei)+1]++
	}
	for v := 0; v < n; v++ {
		t.off[v+1] += t.off[v]
	}
	next := append([]int32(nil), t.off[:n]...)
	for _, ei := range edges {
		v := at(ei)
		t.to[next[v]] = int32(to(ei))
		next[v]++
	}
	return t
}
