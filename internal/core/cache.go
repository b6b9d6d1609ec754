package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// defaultPlanCacheCap is the number of entries an Engine retains by
// default, in its plan cache and in its kernel cache alike. A plan is a
// parsed query with its automaton and label tables; a kernel cache entry is
// one RPQ expression's product with one graph revision, and it holds what
// its sweeps kept: the condensation of the reachable product (DESIGN §20,
// O(reachable product)), the reversed kernel of backward plans and the
// pooled batch scratch. The plans hold kernels too, so an entry's size is
// not bounded by the text it is keyed by (ROADMAP item 17: a cache sized in
// bytes).
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

// planCache is a size-bounded LRU of values compiled against one graph
// revision, one revision's value per key. An Engine keeps two: its plan
// cache, keyed by normalized query text namespaced by query kind and engine
// knobs (planKey), and its kernel cache, keyed by an RPQ expression's
// printed text (run.product). It is safe for concurrent use; a hit
// refreshes recency, so lookups take the write lock and only stats() uses
// the read lock.
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
// graph revision the value was compiled against, and the cached value: a
// plan or a product.
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
// RPQ lexer, so `a\vb` used to be answered from the plan of `a b`.) The
// blanks are ASCII, so one pass over the bytes finds them: the key of a
// 1 MiB body costs one copy of it, however many blanks it holds, and a text
// the parser refuses early is refused in time.
func normalizeQuery(query string) string {
	if strings.ContainsAny(query, `'"`) {
		return query
	}
	var b strings.Builder
	b.Grow(len(query))
	blank := false // blanks were skipped since the last byte written
	for i := 0; i < len(query); i++ {
		switch c := query[i]; c {
		case ' ', '\t', '\n', '\r':
			blank = b.Len() > 0
		default:
			if blank {
				b.WriteByte(' ')
				blank = false
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// planKey normalizes a query string (normalizeQuery) and namespaces it by
// kind and by the engine knobs that shape what gets compiled: Parallelism
// feeds the planner's worker choice and MaxLen bounds enumeration plans, so
// "a . b*" and "a.b *" share one plan while the same query under different
// knob settings — or a 2RPQ with identical text — does not. The graph
// revision is deliberately not part of the key: it is kept in the entry
// (see get), so a query text owns one slot however many commits go by.
func planKey(kind string, maxLen, parallelism int, query string) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s",
		kind, maxLen, parallelism, normalizeQuery(query))
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

// through returns the value c holds under key for revision rev, building
// and caching it on a miss. Cached values are immutable after construction
// (parsed ASTs, compiled NFAs and plans are never mutated by evaluation, and
// a kernel's kept state is internally synchronized), so one value may serve
// concurrent queries. A nil cache — a zero-value Engine's — builds every
// time.
func through[T any](c *planCache, key string, rev uint64, build func() (T, error)) (T, error) {
	if c == nil {
		return build()
	}
	if v, ok := c.get(key, rev); ok {
		return v.(T), nil
	}
	built, err := build()
	if err == nil {
		c.put(key, rev, built)
	}
	return built, err
}

// cached returns the plan for query in the given kind namespace compiled
// against the graph state the caller loaded, building and caching it in the
// plan cache on a miss.
func cached[T any](e *Engine, gs *graphState, kind, query string, build func(string) (T, error)) (T, error) {
	return through(e.plans, planKey(kind, e.MaxLen, e.Parallelism, query), gs.rev,
		func() (T, error) { return build(query) })
}
