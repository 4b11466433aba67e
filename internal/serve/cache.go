package serve

import (
	"container/list"
	"sync"

	"powermap/internal/obs"
)

// cache is a bounded LRU over finished synthesis responses, keyed by the
// content address of (netlist bytes, canonical options). Values are
// *Response snapshots; the handler copies before mutating the per-request
// fields (Cached, ElapsedMS). Hits, misses and evictions count into the
// serve.cache_* counters of the scope (nil-safe handles: a scope-less
// server counts nothing).
type cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent
	entries map[string]*list.Element

	hits, misses, evictions *obs.Counter
}

type cacheEntry struct {
	key string
	val *Response
}

func newCache(max int, sc *obs.Scope) *cache {
	return &cache{
		max:       max,
		order:     list.New(),
		entries:   make(map[string]*list.Element),
		hits:      sc.Counter("serve.cache_hits"),
		misses:    sc.Counter("serve.cache_misses"),
		evictions: sc.Counter("serve.cache_evictions"),
	}
}

func (c *cache) get(key string) (*Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *cache) put(key string, val *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		ent := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, ent.key)
		c.evictions.Inc()
	}
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
