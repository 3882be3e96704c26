package lake

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"modellake/internal/search"
	"modellake/internal/tensor"
)

// queryCache is a small invalidate-on-write LRU over content-search results,
// keyed by (embedding space, query-vector hash, k). Repeated related-model
// queries — the dominant read traffic in a serving lake, where popular
// models are queried far more often than the catalog changes — skip the
// index scan entirely. Every write that can change search results (ingest,
// batch ingest) clears the whole cache: correctness over retention — a
// cache may only ever be a speedup, never a divergence.
//
// Entries store the query vector itself and verify it on lookup, so even an
// FNV-64 collision cannot surface another query's hits.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type queryCacheEntry struct {
	key  string
	vec  tensor.Vector
	hits []search.Hit
}

// defaultQueryCacheCap and maxCachedHits bound the cache footprint: 1024
// entries × (vector + at most 256 hits) is a few MiB at typical embedding
// dims, enough to cover a hot working set without mattering to the process
// RSS. Requests for more — an MLQL RANK BY similarity asks for the whole
// lake, 100 kB a list at 4k models — are not admitted: the entry cap would
// otherwise bound nothing in bytes.
const (
	defaultQueryCacheCap = 1024
	maxCachedHits        = 256
)

func newQueryCache(capacity int) *queryCache {
	if capacity <= 0 {
		capacity = defaultQueryCacheCap
	}
	return &queryCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// key folds the space, k, and an FNV-64a hash of the vector's float bits
// into the map key. The stored vector disambiguates hash collisions.
func (c *queryCache) key(space string, v tensor.Vector, k int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return space + ":" + strconv.Itoa(k) + ":" + strconv.FormatUint(h.Sum64(), 16)
}

func vecEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// get returns the cached raw hits for (space, v, k), or ok=false. The
// returned slice is a copy: callers truncate and filter it freely without
// corrupting the cached entry.
func (c *queryCache) get(space string, v tensor.Vector, k int) ([]search.Hit, bool) {
	if c == nil {
		return nil, false
	}
	key := c.key(space, v, k)
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		ent := el.Value.(*queryCacheEntry)
		if vecEqual(ent.vec, v) {
			c.ll.MoveToFront(el)
			out := make([]search.Hit, len(ent.hits))
			copy(out, ent.hits)
			c.mu.Unlock()
			c.hits.Add(1)
			mQueryCacheHits.Inc()
			return out, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	mQueryCacheMisses.Inc()
	return nil, false
}

// put stores the raw hits for (space, v, k), evicting the least recently
// used entry when full; a request for more than maxCachedHits is not admitted
// (its get simply misses). The vector and hits are copied in, so later
// caller mutations cannot reach the cache.
func (c *queryCache) put(space string, v tensor.Vector, k int, hits []search.Hit) {
	if c == nil || k > maxCachedHits {
		return
	}
	key := c.key(space, v, k)
	stored := make([]search.Hit, len(hits))
	copy(stored, hits)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*queryCacheEntry).hits = stored
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&queryCacheEntry{key: key, vec: v.Clone(), hits: stored})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*queryCacheEntry).key)
	}
}

// invalidate empties the cache. Called on every index-mutating write.
func (c *queryCache) invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	c.mu.Unlock()
}

// stats reports lifetime hits and misses.
func (c *queryCache) stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// len reports the current entry count.
func (c *queryCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
