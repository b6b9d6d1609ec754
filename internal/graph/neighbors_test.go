package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// chainGen draws valid mutation batches against the newest version of a
// chain: edge adds and removes over a few labels (now and then a label the
// chain has not seen), node adds, property sets — which touch no label —
// and node removals, which cascade over every label on the node.
type chainGen struct {
	rng  *rand.Rand
	next int
}

func (cg *chainGen) id(prefix string) string {
	cg.next++
	return fmt.Sprintf("%s%d", prefix, cg.next)
}

func (cg *chainGen) liveNode(g *Graph) string {
	for {
		if i := cg.rng.Intn(g.NumNodes()); g.NodeAlive(i) {
			return string(g.nodes[i].ID)
		}
	}
}

func (cg *chainGen) batch(g *Graph) []Mutation {
	var muts []Mutation
	gone := map[int]bool{} // edges this batch already removes
	for n := 1 + cg.rng.Intn(4); len(muts) < n; {
		switch cg.rng.Intn(8) {
		case 0, 1, 2:
			label := string(rune('a' + cg.rng.Intn(4)))
			if cg.rng.Intn(12) == 0 {
				label = cg.id("fresh")
			}
			muts = append(muts, Mutation{Op: MutAddEdge, ID: cg.id("e"), Label: label,
				Src: cg.liveNode(g), Tgt: cg.liveNode(g)})
		case 3, 4:
			if ei := cg.rng.Intn(g.NumEdges()); g.EdgeAlive(ei) && !gone[ei] {
				gone[ei] = true
				muts = append(muts, Mutation{Op: MutRemoveEdge, ID: string(g.edges[ei].ID)})
			}
		case 5:
			muts = append(muts, Mutation{Op: MutAddNode, ID: cg.id("v")})
		default:
			muts = append(muts, Mutation{Op: MutSetNodeProp, ID: cg.liveNode(g), Prop: "k", Value: Int(int64(cg.next))})
		}
	}
	if cg.rng.Intn(6) == 0 && g.NumLiveNodes() > 8 {
		// Last, so nothing earlier in the batch names an edge it cascades to.
		muts = append(muts, Mutation{Op: MutRemoveNode, ID: cg.liveNode(g)})
	}
	return muts
}

func randomBase(rng *rand.Rand, nodes, edges int) *Graph {
	b := NewBuilder()
	for i := 0; i < nodes; i++ {
		b.AddNode(NodeID(fmt.Sprintf("n%d", i)), "", nil)
	}
	for e := 0; e < edges; e++ {
		b.AddEdge(EdgeID(fmt.Sprintf("b%d", e)), string(rune('a'+rng.Intn(4))),
			NodeID(fmt.Sprintf("n%d", rng.Intn(nodes))), NodeID(fmt.Sprintf("n%d", rng.Intn(nodes))), nil)
	}
	return b.MustBuild()
}

// checkTable holds one neighbor table to the label index of the version it
// was served to: every node's row, endpoints in index order.
func checkTable(t *testing.T, what string, g *Graph, tb *NeighborTable, lid int, in bool) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		row, end := g.OutWithLabel(v, lid), g.EdgeTgt
		if in {
			row, end = g.InWithLabel(v, lid), g.EdgeSrc
		}
		got := tb.Neighbors(v)
		if len(got) != len(row) {
			t.Fatalf("%s: node %d has %d neighbors in the table, %d in the label index", what, v, len(got), len(row))
		}
		for i, ei := range row {
			if int(got[i]) != end(ei) {
				t.Fatalf("%s: node %d neighbor %d is %d in the table, %d in the label index", what, v, i, got[i], end(ei))
			}
		}
	}
}

// TestNeighborTablesFollowLabelEpochs is the exactness test of table
// sharing: along generated chains, tables are bought from arbitrary held
// versions — old ones too — and after every commit every held version reads
// every table the chain offers it and compares it, row by row, with its own
// label index. A table served to a version whose edges under the label
// differ from the builder's fails here; the test also insists that sharing
// happened in both directions of time, so it cannot pass by never sharing.
func TestNeighborTablesFollowLabelEpochs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		cg := &chainGen{rng: rng}
		g := randomBase(rng, 40, 160)
		if tb, built := g.BuyNeighborTable(0, false); tb != nil || built {
			t.Fatal("a table was built on an empty balance")
		}
		versions := []*Graph{g}
		// A table is one build of (label, direction) at one epoch; growing it
		// by rows for added nodes makes a new value of the same table.
		type build struct {
			key   neighborKey
			epoch uint64
		}
		builtAt := map[build]int{}
		var toOlder, toNewer int
		for step := 0; step < 80; step++ {
			ng, err := g.Apply(cg.batch(g))
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			g = ng
			versions = append(versions, g)

			at := rng.Intn(len(versions))
			buyer := versions[at]
			lid, in := rng.Intn(buyer.NumLabels()), rng.Intn(2) == 0
			buyer.PayRent(int64(buyer.NumNodes() + buyer.LabelEdgeCount(lid)))
			tb, built := buyer.BuyNeighborTable(lid, in)
			if tb == nil {
				t.Fatalf("seed %d step %d: the balance covers the table and none was returned", seed, step)
			}
			if built {
				builtAt[build{neighborKey{lid, in}, tb.epoch}] = at
			}

			for vi, v := range versions {
				for lid := 0; lid < v.NumLabels(); lid++ {
					for _, in := range []bool{false, true} {
						tb := v.NeighborTable(lid, in)
						if tb == nil {
							continue
						}
						from := builtAt[build{neighborKey{lid, in}, tb.epoch}]
						checkTable(t, fmt.Sprintf("seed %d step %d: table (%s, in=%v) built at version %d, served to version %d",
							seed, step, v.LabelName(lid), in, from, vi), v, tb, lid, in)
						if vi < from {
							toOlder++
						} else if vi > from {
							toNewer++
						}
					}
				}
			}
		}
		if toOlder == 0 || toNewer == 0 {
			t.Fatalf("seed %d: tables served %d times to older and %d times to newer versions than their builder; the test shared nothing",
				seed, toOlder, toNewer)
		}
		if n, max := len(g.neighbors.tables), 2*g.NumLabels(); n > max {
			t.Fatalf("seed %d: chain holds %d tables for %d labels", seed, n, g.NumLabels())
		}
		m, err := g.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if m.neighbors == g.neighbors || len(m.neighbors.tables) != 0 || m.neighbors.balance.Load() != 0 {
			t.Fatalf("seed %d: a materialized graph must start a chain with an empty cache", seed)
		}
	}
}

// TestNeighborTableRowsOfAddedNodes: a table built before a node was added
// serves versions that have the node — grown by an empty row for it, since
// no edge under the table's label can touch it without retiring the table —
// and the version that built it keeps reading the rows it had.
func TestNeighborTableRowsOfAddedNodes(t *testing.T) {
	g := seedGraph(t)
	knows, _ := g.LabelID("knows")
	g.PayRent(100)
	tb, built := g.BuyNeighborTable(knows, false)
	if !built {
		t.Fatal("table not built")
	}
	g2, err := g.Apply([]Mutation{{Op: MutSetNodeProp, ID: "a", Prop: "age", Value: Int(31)},
		{Op: MutAddEdge, ID: "e5", Label: "lives_in", Src: "c", Tgt: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.NeighborTable(knows, false); got != tb {
		t.Fatal("a commit that left 'knows' and the node set alone did not get the very table v0 built")
	}
	g3, err := g2.Apply([]Mutation{
		{Op: MutAddNode, ID: "d"},
		{Op: MutAddEdge, ID: "e6", Label: "lives_in", Src: "d", Tgt: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := g3.NeighborTable(knows, false)
	if grown == nil {
		t.Fatal("adding a node with no edge under 'knows' retired its table")
	}
	checkTable(t, "v3, one node more than the table was built for", g3, grown, knows, false)
	checkTable(t, "v0, reading the grown table", g, g.NeighborTable(knows, false), knows, false)
	checkTable(t, "v0, still holding the table it built", g, tb, knows, false)
	if _, built := g3.BuyNeighborTable(knows, false); built {
		t.Fatal("growing a table by a row was charged as a build")
	}
	g4, err := g3.Apply([]Mutation{{Op: MutAddEdge, ID: "e7", Label: "knows", Src: "d", Tgt: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if g4.NeighborTable(knows, false) != nil {
		t.Fatal("the table survived a commit that added an edge under its label")
	}
	if g3.NeighborTable(knows, false) == nil || g.NeighborTable(knows, false) == nil {
		t.Fatal("older versions lost their table to a newer commit")
	}
}
