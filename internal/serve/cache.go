package serve

import (
	"container/list"
	"sync"
)

// lru is the bounded prediction cache: a mutex-guarded hash map over an
// intrusive recency list. Keys are the bytes cacheKey encodes (model,
// generation, quantized config), so two requests that clamp to the same
// machine share one slot regardless of how their raw inputs differed.
// A lookup indexes the map with string(key), which Go does without
// copying; only Put allocates the key string it stores. A single mutex is
// enough here: the critical section is a map lookup plus a list splice,
// orders of magnitude cheaper than the RBF evaluation it saves, and the
// predict path only holds it per-point, never across a batch.
type lru struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// lruEntry is one cached prediction.
type lruEntry struct {
	key string
	val float64
}

// newLRU builds a cache bounded at max entries.
func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), items: make(map[string]*list.Element, max)}
}

// Get returns the cached prediction for key and marks it most recently
// used.
func (c *lru) Get(key []byte) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return 0, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes a prediction, evicting the least recently
// used entry when the cache is full.
func (c *lru) Put(key []byte, val float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	k := string(key)
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len reports the number of cached predictions.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap reports the cache's entry capacity.
func (c *lru) Cap() int { return c.max }
