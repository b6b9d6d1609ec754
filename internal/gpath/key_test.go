package gpath

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphquery/internal/graph"
)

// aPath builds v0 -e1-> v1 -> … -> vn, every edge labeled a, and returns
// the whole path from v0 to vn.
func aPath(t *testing.T, n int) (*graph.Graph, Path) {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i <= n; i++ {
		b.AddNode(graph.NodeID(fmt.Sprintf("v%d", i)), "", nil)
	}
	for i := 1; i <= n; i++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", i)), "a",
			graph.NodeID(fmt.Sprintf("v%d", i-1)), graph.NodeID(fmt.Sprintf("v%d", i)), nil)
	}
	g := b.MustBuild()
	objs := []graph.Object{node(g, "v0")}
	for i := 1; i <= n; i++ {
		objs = append(objs, edge(g, graph.EdgeID(fmt.Sprintf("e%d", i))), node(g, graph.NodeID(fmt.Sprintf("v%d", i))))
	}
	return g, mustPath(t, g, objs...)
}

// TestKeyBytes: a key spells each object as its kind, E or N, its index
// and a dot, and a binding key each variable as name=list key;.
func TestKeyBytes(t *testing.T) {
	_, p := aPath(t, 300)
	var want strings.Builder
	for _, o := range p.Objects() {
		kind := "N"
		if o.IsEdge() {
			kind = "E"
		}
		fmt.Fprintf(&want, "%s%d.", kind, o.Index())
	}
	if p.Key() != want.String() || List(p.Objects()).Key() != want.String() {
		t.Fatalf("path key %q, list key %q, want %q", p.Key(), List(p.Objects()).Key(), want.String())
	}
	mu := Binding{"z": List{obj(3, true), obj(700, false)}, "a": List{obj(1, false)}}
	if got := mu.Key(); got != "a=N1.;z=E3.N700.;" {
		t.Fatalf("binding key %q", got)
	}
}

// TestPathKeyAllocs: the key of a 400-edge path is built in one buffer —
// at most the buffer and the string.
func TestPathKeyAllocs(t *testing.T) {
	_, p := aPath(t, 400)
	if n := testing.AllocsPerRun(20, func() { _ = p.Key() }); n > 2 {
		t.Fatalf("Path.Key allocates %v objects, want at most 2", n)
	}
}

// TestHeadBuildsKeysOnce: Head over n results builds each result's keys
// once, not once per comparison: its allocations grow as n, not n log n.
func TestHeadBuildsKeysOnce(t *testing.T) {
	g, _ := aPath(t, 20)
	var all []PathBinding
	for from := 0; from <= 20; from++ {
		for to := from; to <= 20; to++ {
			objs := []graph.Object{graph.MakeNodeObject(g.MustNode(graph.NodeID(fmt.Sprintf("v%d", from))))}
			for i := from + 1; i <= to; i++ {
				objs = append(objs, edge(g, graph.EdgeID(fmt.Sprintf("e%d", i))), node(g, graph.NodeID(fmt.Sprintf("v%d", i))))
			}
			all = append(all, PathBinding{Path: mustPath(t, g, objs...)})
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	buf := make([]PathBinding, len(all))
	n := len(all)
	allocs := testing.AllocsPerRun(5, func() {
		copy(buf, all)
		Head(buf, 0)
	})
	// One path key (buffer and string) per result, and the sort's keyed copy.
	if allocs > float64(2*n+1) {
		t.Fatalf("Head over %d results allocated %v objects, want at most %d", n, allocs, 2*n+1)
	}
	for i := 1; i < n; i++ {
		if a, b := buf[i-1].Path, buf[i].Path; a.Len() > b.Len() || a.Len() == b.Len() && a.Key() >= b.Key() {
			t.Fatalf("results %d and %d out of order", i-1, i)
		}
	}
}
