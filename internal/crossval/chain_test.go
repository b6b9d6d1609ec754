// What a commit invalidates, seen from the engine: a store chain under a
// writer that never touches the queried labels keeps its neighbor tables,
// its plan-cache slot and its analyze output; a commit that does touch them
// is seen by the very next query.
package crossval_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/store"
)

// TestEngineSharesTablesAcrossCommits drives one engine over a live store
// chain: `b b b` rents until it has paid for b's table, then 500 commits
// touch only w with a query after every fifth. No further table is built,
// no plan-cache entry is evicted, every answer and the whole analyze payload
// — plan line, estimates, per-level telemetry, edges — equal what the engine
// said before the first commit, when the same sweep was still renting. Then
// one commit adds a b edge and the next answer equals the materialized
// rebuild's.
func TestEngineSharesTablesAcrossCommits(t *testing.T) {
	const q = "b b b"
	base := gen.ScaleFree(600, 3, 2)
	e := core.New(base)
	e.Parallelism = 1
	st := store.New(store.Config{CompactThreshold: -1, OnSwap: func(_ string, s *store.Snapshot) {
		e.SetGraph(s.G, s.Rev)
	}})
	h, err := st.Load("g", base, false)
	if err != nil {
		t.Fatal(err)
	}
	analyzed := func() ([][2]graph.NodeID, string) {
		t.Helper()
		resp, err := e.Query(core.Request{Query: q, Analyze: true})
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(resp.Analyze)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Pairs, resp.Plan + "\n" + string(js)
	}
	want, wantAnalyze := analyzed() // rents
	for i := 0; e.RuntimeStats().NeighborTablesBuilt == 0; i++ {
		if i == 20 {
			t.Fatalf("20 runs of %q and b's table is not paid for", q)
		}
		analyzed()
	}
	misses := e.CacheStats().Misses
	for i := 0; i < 500; i++ {
		muts := []graph.Mutation{{Op: graph.MutAddEdge, ID: fmt.Sprint("w", i), Label: "w",
			Src: fmt.Sprint("n", i), Tgt: fmt.Sprint("n", 599-i)}}
		if i%3 == 2 {
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: fmt.Sprint("w", i-1)})
		}
		if _, err := h.Mutate(muts, 0); err != nil {
			t.Fatal(err)
		}
		if i%5 != 4 {
			continue
		}
		got, gotAnalyze := analyzed()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("commit %d: %q returned %d pairs, %d before the commits", i, q, len(got), len(want))
		}
		if gotAnalyze != wantAnalyze {
			t.Fatalf("commit %d: analyze output moved\n got %s\nwant %s", i, gotAnalyze, wantAnalyze)
		}
	}
	if built := e.RuntimeStats().NeighborTablesBuilt; built != 1 {
		t.Fatalf("500 w-only commits and %d tables were built, want the first one only", built)
	}
	if cs := e.CacheStats(); cs.Evictions != 0 || cs.Size != 1 || cs.Misses != misses+100 {
		t.Fatalf("plan cache after 100 revisions of one query: %+v; want one slot, a miss per revision, no evictions", cs)
	}

	// A commit under b: the table is retired and the answer moves.
	snap, err := h.Mutate([]graph.Mutation{{Op: graph.MutAddEdge, ID: "b+", Label: "b", Src: "n3", Tgt: "n4"},
		{Op: graph.MutRemoveEdge, ID: string(base.Edge(base.EdgesWithLabel("b")[0]).ID)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Pairs(q)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := snap.G.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.New(mat).Pairs(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, prs := range [][][2]graph.NodeID{got, rebuilt} {
		sort.Slice(prs, func(i, j int) bool {
			return prs[i][0] < prs[j][0] || prs[i][0] == prs[j][0] && prs[i][1] < prs[j][1]
		})
	}
	if !reflect.DeepEqual(got, rebuilt) || reflect.DeepEqual(got, want) {
		t.Fatalf("after a commit under b: %d pairs on the chain, %d on its rebuild, %d before the commit",
			len(got), len(rebuilt), len(want))
	}
}
