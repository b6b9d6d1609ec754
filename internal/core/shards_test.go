package core

import (
	"reflect"
	"strings"
	"testing"

	"graphquery/internal/gen"
)

// TestPlanCacheKeyedByShards: the Shards knob feeds the planner (it
// shards a query's sweeps), so it must be part of the
// plan-cache key — flipping it after a query was cached must replan, and
// returning to the old setting must hit the old entry.
func TestPlanCacheKeyedByShards(t *testing.T) {
	e := New(gen.Clique(64, "a"))
	e.Parallelism = 1
	before := planLine(t, e, "a a*")
	if strings.Contains(before, "shards=") {
		t.Fatalf("unsharded plan line mentions shards: %s", before)
	}
	e.Shards = 4
	after := planLine(t, e, "a a*")
	if !strings.Contains(after, "shards=4") {
		t.Fatalf("plan not replanned after Shards change (stale cache entry?): %s", after)
	}
	e.Shards = 0
	hits := e.CacheStats().Hits
	if again := planLine(t, e, "a a*"); again != before {
		t.Fatalf("returning to Shards=0 changed the plan: %s vs %s", again, before)
	}
	if got := e.CacheStats().Hits; got != hits+1 {
		t.Fatalf("expected a cache hit for the original knob setting, hits %d -> %d", hits, got)
	}
}

// TestEngineShardsDeterminism: a sharded engine returns byte-identical
// results to an unsharded one on every query kind that sweeps the kernel.
func TestEngineShardsDeterminism(t *testing.T) {
	g := gen.Random(80, 500, []string{"a", "b", "c"}, 21)
	plain := New(g)
	plain.Parallelism = 1
	sharded := New(g)
	sharded.Parallelism = 1
	sharded.Shards = 4
	for _, q := range []string{"a*", "(a | b) c*", "(!{b})*", "a b* a"} {
		want, err := plain.Pairs(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Pairs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: sharded engine diverged", q)
		}
	}
}
