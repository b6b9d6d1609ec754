package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// defaultPlanCacheCap is the number of compiled plans an Engine retains by
// default. Plans are small (an AST plus an NFA), so a few hundred entries
// cover realistic multi-query workloads without measurable memory cost.
const defaultPlanCacheCap = 256

// CacheStats is a snapshot of the compiled-plan cache counters — the
// engine's first observability hook.
type CacheStats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that had to parse + compile
	Evictions int64 // entries dropped by the LRU bound
	Size      int   // entries currently cached
	Capacity  int   // maximum entries retained
}

// planCache is a size-bounded LRU of compiled query plans, keyed by
// normalized query text namespaced by query kind and engine knobs, one
// graph revision's plan per key. It is safe for concurrent
// use; a hit refreshes recency, so lookups take the write lock and only
// stats() uses the read lock.
type planCache struct {
	mu        sync.RWMutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one LRU element: the key (needed to unmap on eviction), the
// graph revision the plan was compiled against, and the cached plan, an
// immutable parsed AST and/or compiled automaton.
type cacheEntry struct {
	key  string
	rev  uint64
	plan any
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// normalizeQuery collapses runs of blanks — space, tab, newline, carriage
// return: what every lexer in the repository skips — into one space and
// trims them at the ends, unless the text holds a quote: inside quotes
// blanks are data, and telling inside from outside is each language's
// business. Everything else keeps its spelling. (strings.Fields is not this
// function: \v, \f and U+0085 are spaces to it and label characters to the
// RPQ lexer, so `a\vb` used to be answered from the plan of `a b`.)
func normalizeQuery(query string) string {
	if strings.ContainsAny(query, `'"`) {
		return query
	}
	return strings.Join(strings.FieldsFunc(query, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	}), " ")
}

// planKey normalizes a query string (normalizeQuery) and
// namespaces it by kind and by the engine knobs that shape what gets
// compiled: Parallelism feeds the planner's worker choice, Shards its
// kernel-sharding decision, and MaxLen bounds enumeration plans, so
// "a . b*" and "a.b *" share one plan while the same query under different
// knob settings — or a 2RPQ with identical text — does not. The graph
// revision is deliberately not part of the key: it is kept in the entry
// (see get), so a query text owns one slot however many commits go by.
func planKey(kind string, maxLen, parallelism, shards int, query string) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%d\x00%s",
		kind, maxLen, parallelism, shards, normalizeQuery(query))
}

// get returns the plan cached under key if it was compiled against graph
// revision rev, and refreshes its recency. Compiled products bind the graph
// they were resolved against, so after a live store commits and swaps the
// engine's graph an entry of another revision is a miss — it would answer
// from a stale snapshot — and the rebuild replaces it in place (put).
func (c *planCache) get(key string, rev uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		if en := el.Value.(*cacheEntry); en.rev == rev {
			c.ll.MoveToFront(el)
			c.hits++
			return en.plan, true
		}
	}
	c.misses++
	return nil, false
}

// put caches a plan compiled against revision rev, evicting the least
// recently used entry when over capacity. An entry of an older revision
// under the same key is overwritten: no later query can hit it, and it pins
// a whole superseded graph version. An entry of a newer revision stays — the
// caller is a reader still pinned to an old snapshot, and its plan serves
// only itself.
func (c *planCache) put(key string, rev uint64, plan any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		if en := el.Value.(*cacheEntry); en.rev <= rev {
			en.rev, en.plan = rev, plan
			c.ll.MoveToFront(el)
		}
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, rev: rev, plan: plan})
	c.evictOver()
}

// resize changes the capacity, evicting immediately if shrinking; capacity
// ≤ 0 disables caching and drops every entry.
func (c *planCache) resize(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictOver()
}

// evictOver drops LRU entries until within capacity. Callers hold mu.
func (c *planCache) evictOver() {
	for c.ll.Len() > c.capacity {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
		c.evictions++
	}
}

func (c *planCache) stats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}

// cached returns the plan for query in the given kind namespace compiled
// against the graph state the caller loaded, building and caching it on a
// miss.
// Cached plans are immutable after construction (parsed ASTs and compiled
// NFAs are never mutated by evaluation), so one plan may serve concurrent
// queries.
func cached[T any](e *Engine, gs *graphState, kind, query string, build func(string) (T, error)) (T, error) {
	if e.plans == nil { // zero-value Engine: cache disabled
		return build(query)
	}
	key := planKey(kind, e.MaxLen, e.Parallelism, e.Shards, query)
	if v, ok := e.plans.get(key, gs.rev); ok {
		return v.(T), nil
	}
	built, err := build(query)
	if err != nil {
		var zero T
		return zero, err
	}
	e.plans.put(key, gs.rev, built)
	return built, nil
}
