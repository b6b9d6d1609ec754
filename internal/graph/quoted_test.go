package graph

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"testing"
)

// jsonString is the reference: s through a json.Encoder that does not escape
// HTML — the service's one setting — without the newline.
func jsonString(t testing.TB, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// awkwardIDs has an ID per way one can need escaping, the empty ID, and
// plain ones between them so that a wrong offset shows.
var awkwardIDs = []NodeID{
	"plain", `a"b`, `c\d`, "", "\x00", "\b\f\n\r\t", "\x1f\x7f", "<e>&", "\xff", "a\xe2\x82", "\xed\xa0\x80",
	"\u2028", "x\u2029y", "\U0001F600", "n42", `\"`,
}

// holdsLiteral checks that g renders node v as the escaper and as
// encoding/json render its ID.
func holdsLiteral(t *testing.T, g *Graph, v int) {
	t.Helper()
	id := string(g.NodeID(v))
	got := g.AppendNodeIDJSON([]byte("x"), v)
	if want := AppendJSONString([]byte("x"), id); !bytes.Equal(got, want) {
		t.Errorf("node %d (%q): AppendNodeIDJSON wrote %q, the escaper %q", v, id, got, want)
	}
	if want := jsonString(t, id); !bytes.Equal(got[1:], want) {
		t.Errorf("node %d (%q): AppendNodeIDJSON wrote %q, encoding/json %q", v, id, got[1:], want)
	}
}

// TestQuotedIDsMatchEscaper: Build lays every node's ID out as the JSON
// literal the escaper writes for it, which is what encoding/json writes,
// followed by QuotePad zero bytes, and QuotedNodeID hands each literal out
// with that padding readable past its end; the arena is the base's — Apply
// hands it down untouched, Materialize builds a new one — and a node an
// overlay added, which it does not hold, is quoted on the fly, also on two
// versions forked from one parent that each added a different node at the
// same index.
func TestQuotedIDsMatchEscaper(t *testing.T) {
	b := NewBuilder()
	for _, id := range awkwardIDs {
		b.AddNode(id, "", nil)
	}
	b.AddEdge("e", "a", awkwardIDs[0], awkwardIDs[1], nil)
	base := b.MustBuild()
	n := base.NumNodes()
	q := base.quoted
	if len(q.off) != n+1 || int(q.off[n])+QuotePad != len(q.buf) {
		t.Fatalf("arena holds %d offsets over %d bytes for %d nodes", len(q.off), len(q.buf), n)
	}
	if pad := q.buf[q.off[n]:]; !bytes.Equal(pad, make([]byte, QuotePad)) {
		t.Fatalf("the arena's padding is %q", pad)
	}
	for v := 0; v < n; v++ {
		holdsLiteral(t, base, v)
		want := jsonString(t, string(awkwardIDs[v]))
		if lit := q.buf[q.off[v]:q.off[v+1]]; !bytes.Equal(lit, want) {
			t.Errorf("node %d: arena holds %q", v, lit)
		}
		if lit, ok := base.QuotedNodeID(v); !ok || !bytes.Equal(lit, want) || cap(lit) < len(lit)+QuotePad {
			t.Errorf("node %d: QuotedNodeID = %q (cap %d), %v", v, lit, cap(lit), ok)
		}
	}

	// Forks share the parent's node array where it has room; clipping it
	// keeps the two children's additions apart, as the store's one writer
	// per chain does by never forking.
	base.nodes = slices.Clip(base.nodes)
	left, err := base.Apply([]Mutation{{Op: MutAddNode, ID: `left"1`}, {Op: MutRemoveNode, ID: "plain"}})
	if err != nil {
		t.Fatal(err)
	}
	right, err := base.Apply([]Mutation{{Op: MutAddNode, ID: "right\n2"}, {Op: MutAddNode, ID: "\u2029"}})
	if err != nil {
		t.Fatal(err)
	}
	deeper, err := left.Apply([]Mutation{{Op: MutAddNode, ID: `d\eeper`}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{left, right, deeper} {
		if &g.quoted.buf[0] != &base.quoted.buf[0] || len(g.quoted.off) != n+1 {
			t.Fatal("Apply did not hand the base's arena down unchanged")
		}
		for v := 0; v < g.NumNodes(); v++ {
			holdsLiteral(t, g, v) // tombstoned nodes keep their name and their literal
		}
		if _, ok := g.QuotedNodeID(n); ok {
			t.Error("QuotedNodeID hands out a literal for a node an overlay added")
		}
	}
	if string(left.NodeID(n)) != `left"1` || string(right.NodeID(n)) != "right\n2" {
		t.Fatalf("forks disturbed each other: node %d is %q on one, %q on the other", n, left.NodeID(n), right.NodeID(n))
	}

	flat, err := deeper.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if &flat.quoted.buf[0] == &base.quoted.buf[0] || len(flat.quoted.off) != flat.NumNodes()+1 || flat.NumNodes() != n+1 {
		t.Fatalf("Materialize kept the old arena: %d offsets for %d nodes", len(flat.quoted.off), flat.NumNodes())
	}
	for v := 0; v < flat.NumNodes(); v++ {
		holdsLiteral(t, flat, v)
	}

	empty := NewBuilder().MustBuild()
	grown, err := empty.Apply([]Mutation{{Op: MutAddNode, ID: `first"`}})
	if err != nil {
		t.Fatal(err)
	}
	holdsLiteral(t, grown, 0)
}

// shapedBuilder fills a Builder with the short-reads graph's shape at the
// given size: out edges from every node but the first to earlier nodes,
// every sixteenth labeled b, the rest a.
func shapedBuilder(nodes, out int) *Builder {
	id := func(i int) NodeID { return NodeID("n" + strconv.Itoa(i)) }
	bd := NewBuilder()
	for i := 0; i < nodes; i++ {
		bd.AddNode(id(i), "", nil)
	}
	e := 0
	for i := 1; i < nodes; i++ {
		for j := 0; j < out; j++ {
			label := "a"
			if e%16 == 0 {
				label = "b"
			}
			bd.AddEdge(EdgeID("e"+strconv.Itoa(e)), label, id(i), id((i*7919+j*104729)%i), nil)
			e++
		}
	}
	return bd
}

// TestBuildAllocs: Build files every index by counting sorts into slices
// sized up front, so what it allocates does not grow with the graph — a
// per-node list or a per-node sort would.
func TestBuildAllocs(t *testing.T) {
	allocs := func(nodes int) float64 {
		const runs = 2
		builders := make([]*Builder, runs+1) // AllocsPerRun calls once more to warm up
		for i := range builders {
			builders[i] = shapedBuilder(nodes, 4)
		}
		return testing.AllocsPerRun(runs, func() {
			builders[0].MustBuild()
			builders = builders[1:]
		})
	}
	small, large := allocs(2000), allocs(20000)
	if small != large {
		t.Fatalf("Build allocates %v times at 2 000 nodes and %v at 20 000", small, large)
	}
}

// BenchmarkBuild is what Build costs on the short-reads graph's shape
// (scalefree-20000: 20 000 nodes, 79 990 edges), the quoted-ID arena
// included; quote-ids is that part alone.
func BenchmarkBuild(b *testing.B) {
	const nodes, out = 20000, 4
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bd := shapedBuilder(nodes, out)
			b.StartTimer()
			if g := bd.MustBuild(); g.NumNodes() != nodes {
				b.Fatal(g.NumNodes())
			}
		}
	})
	g := shapedBuilder(nodes, out).MustBuild()
	b.Run("quote-ids", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if q := quoteIDs(g.nodes); len(q.off) != nodes+1 {
				b.Fatal(len(q.off))
			}
		}
	})
}
