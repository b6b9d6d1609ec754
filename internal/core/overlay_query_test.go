package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// TestOverlayQueriesMatchMaterialized runs the whole query tower over a
// mutated (overlay) graph and over its materialized equivalent, and demands
// identical answers. This exercises every dense node/edge enumeration that
// must skip tombstones: RPQ product sweeps (sequential, parallel),
// two-way RPQs, CRPQ atom candidates, ℓ-RPQ/dl-RPQ anchored search, and GQL
// patterns.
func TestOverlayQueriesMatchMaterialized(t *testing.T) {
	base := gen.Random(60, 200, []string{"a", "b", "c"}, 11)
	muts := []graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "v5"},
		{Op: graph.MutRemoveNode, ID: "v17"},
		{Op: graph.MutAddNode, ID: "w0", Label: "W"},
		{Op: graph.MutAddEdge, ID: "f0", Label: "a", Src: "w0", Tgt: "v1"},
		{Op: graph.MutAddEdge, ID: "f1", Label: "b", Src: "v2", Tgt: "w0"},
		{Op: graph.MutRemoveEdge, ID: "e10"},
		{Op: graph.MutRemoveEdge, ID: "e11"},
		{Op: graph.MutSetNodeProp, ID: "v1", Prop: "k", Value: graph.Int(7)},
	}
	over, err := base.Apply(muts)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := over.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []struct {
		name        string
		parallelism int
	}{
		{"sequential", 1},
		{"parallel", 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			eo := New(over)
			em := New(mat)
			eo.Parallelism, em.Parallelism = cfg.parallelism, cfg.parallelism

			check := func(label string, run func(e *Engine) (any, error)) {
				t.Helper()
				got, err1 := run(eo)
				want, err2 := run(em)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s: overlay err %v, materialized err %v", label, err1, err2)
				}
				if err1 != nil {
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: overlay answer differs from materialized\noverlay: %v\nmaterialized: %v",
						label, got, want)
				}
			}

			for _, q := range []string{"a", "a.b", "(a+b)*", "a*.c"} {
				q := q
				check("pairs:"+q, func(e *Engine) (any, error) { return sortPairs(e.Pairs(q)) })
			}
			check("2rpq", func(e *Engine) (any, error) { return sortPairs(e.TwoWayPairs("a.~b")) })
			// Row, path, and match order may track internal node numbering,
			// which differs between the overlay and the rebuilt graph, so
			// compare as sorted rendered sets.
			check("crpq", func(e *Engine) (any, error) {
				res, err := e.Rows("ans(x,y) :- (x, a.b, y)")
				if err != nil {
					return nil, err
				}
				out := make([]string, len(res.Rows))
				for i, row := range res.Rows {
					out[i] = fmt.Sprint(row)
				}
				sort.Strings(out)
				return out, nil
			})
			check("paths", func(e *Engine) (any, error) {
				e.MaxLen = 4
				prs, err := e.Paths("a.(a+b)", "v1", "v2", 0)
				if err != nil {
					return nil, err
				}
				out := make([]string, len(prs))
				for i, pr := range prs {
					out[i] = pr.Format(e.Graph())
				}
				sort.Strings(out)
				return out, nil
			})
			check("gql", func(e *Engine) (any, error) {
				e.MaxLen = 3
				ms, err := e.GQLMatch("(x)-[:a]->(y)")
				if err != nil {
					return nil, err
				}
				sort.Strings(ms)
				return ms, nil
			})
		})
	}
}

// sortPairs canonicalizes pair answers: parallel merges are deterministic,
// but overlay vs materialized graphs number nodes differently, so compare
// by external ID in sorted order.
func sortPairs(prs [][2]graph.NodeID, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	out := make([]string, len(prs))
	for i, pr := range prs {
		out[i] = string(pr[0]) + "\x00" + string(pr[1])
	}
	sort.Strings(out)
	return out, nil
}

// TestCondensationKeptPerRevision: an all-pairs query that condenses its
// product keeps the condensation on the cached plan's kernel, so repeating
// it builds nothing; a new graph revision compiles a new kernel, whose first
// call builds again — over the overlay, tombstones and all — and answers
// what the materialized graph answers.
func TestCondensationKeptPerRevision(t *testing.T) {
	const q = "a* b a"
	base := gen.ScaleFree(400, 3, 7)
	e := New(base)
	e.Parallelism = 2
	built := func() int64 { return e.RuntimeStats().CondensationsBuilt }
	for run := 0; run < 3; run++ {
		if _, err := e.Pairs(q); err != nil {
			t.Fatal(err)
		}
		if n := built(); n != 1 {
			t.Fatalf("run %d on one revision: %d condensations built, want 1", run, n)
		}
	}

	over, err := base.Apply([]graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n5"},
		{Op: graph.MutAddEdge, ID: "z0", Label: "a", Src: "n1", Tgt: "n300"},
		{Op: graph.MutAddEdge, ID: "z1", Label: "b", Src: "n300", Tgt: "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := over.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sortPairs(New(mat).Pairs(q))
	e.SetGraph(over, e.GraphRev()+1)
	for run := 0; run < 3; run++ {
		got, err := sortPairs(e.Pairs(q))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on the new revision: the overlay's answer differs from the materialized graph's", run)
		}
		if n := built(); n != 2 {
			t.Fatalf("run %d on the new revision: %d condensations built, want one more than the first revision's", run, n)
		}
	}
}
