package lake

import (
	"context"
	"fmt"
	"testing"

	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

func qcHits(ids ...string) []search.Hit {
	out := make([]search.Hit, len(ids))
	for i, id := range ids {
		out[i] = search.Hit{ID: id, Score: float64(i)}
	}
	return out
}

func qcVec(seed int, dim int) tensor.Vector {
	v := make(tensor.Vector, dim)
	for i := range v {
		v[i] = float64(seed*31+i) / 7
	}
	return v
}

func TestQueryCacheHitMissRoundTrip(t *testing.T) {
	c := newQueryCache(8)
	v := qcVec(1, 4)
	if _, ok := c.get("behavior", v, 5); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put("behavior", v, 5, qcHits("a", "b"))
	got, ok := c.get("behavior", v, 5)
	if !ok || len(got) != 2 || got[0].ID != "a" {
		t.Fatalf("get = %v, %v", got, ok)
	}
	// Same vector, different k or space: distinct entries.
	if _, ok := c.get("behavior", v, 6); ok {
		t.Fatal("k is not part of the key")
	}
	if _, ok := c.get("weights", v, 5); ok {
		t.Fatal("space is not part of the key")
	}
	hits, misses := c.stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 1/3", hits, misses)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	c := newQueryCache(2)
	v1, v2, v3 := qcVec(1, 4), qcVec(2, 4), qcVec(3, 4)
	c.put("s", v1, 1, qcHits("a"))
	c.put("s", v2, 1, qcHits("b"))
	// Touch v1 so v2 becomes least recently used.
	if _, ok := c.get("s", v1, 1); !ok {
		t.Fatal("v1 missing before eviction")
	}
	c.put("s", v3, 1, qcHits("c"))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("s", v2, 1); ok {
		t.Fatal("LRU entry v2 survived eviction")
	}
	if _, ok := c.get("s", v1, 1); !ok {
		t.Fatal("recently used v1 was evicted")
	}
	if _, ok := c.get("s", v3, 1); !ok {
		t.Fatal("newest entry v3 missing")
	}
}

func TestQueryCacheInvalidate(t *testing.T) {
	c := newQueryCache(8)
	for i := 0; i < 5; i++ {
		c.put("s", qcVec(i, 4), 1, qcHits(fmt.Sprint(i)))
	}
	if c.len() != 5 {
		t.Fatalf("len = %d, want 5", c.len())
	}
	c.invalidate()
	if c.len() != 0 {
		t.Fatalf("len after invalidate = %d, want 0", c.len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.get("s", qcVec(i, 4), 1); ok {
			t.Fatalf("entry %d survived invalidate", i)
		}
	}
}

// TestQueryCacheCollisionRejected plants an entry whose stored vector does
// not match the probe vector under the same map key — exactly what an
// FNV-64 collision would produce — and checks get refuses to serve it.
func TestQueryCacheCollisionRejected(t *testing.T) {
	c := newQueryCache(8)
	probe, impostor := qcVec(1, 4), qcVec(2, 4)
	key := c.key("s", probe, 3)
	c.mu.Lock()
	c.entries[key] = c.ll.PushFront(&queryCacheEntry{key: key, vec: impostor, hits: qcHits("wrong")})
	c.mu.Unlock()
	if got, ok := c.get("s", probe, 3); ok {
		t.Fatalf("collision served foreign hits: %v", got)
	}
}

// TestQueryCacheIsolation checks the copy-in/copy-out contract: mutating the
// caller's slices before or after cache operations never reaches the cache.
func TestQueryCacheIsolation(t *testing.T) {
	c := newQueryCache(8)
	v := qcVec(1, 4)
	in := qcHits("a", "b")
	c.put("s", v, 2, in)
	in[0].ID = "mutated-in"
	out1, _ := c.get("s", v, 2)
	if out1[0].ID != "a" {
		t.Fatalf("caller mutation reached the cache: %v", out1)
	}
	out1[1].ID = "mutated-out"
	out2, _ := c.get("s", v, 2)
	if out2[1].ID != "b" {
		t.Fatalf("returned-slice mutation reached the cache: %v", out2)
	}
}

func TestQueryCacheNilSafe(t *testing.T) {
	var c *queryCache
	if _, ok := c.get("s", qcVec(1, 2), 1); ok {
		t.Fatal("nil cache hit")
	}
	c.put("s", qcVec(1, 2), 1, qcHits("a"))
	c.invalidate()
	if h, m := c.stats(); h != 0 || m != 0 {
		t.Fatal("nil cache has stats")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

// TestLakeQueryCacheEndToEnd exercises the wired-up cache on a real lake:
// repeated searches hit, results are identical to the uncached answer, and
// any ingest invalidates.
func TestLakeQueryCacheEndToEnd(t *testing.T) {
	pop := population(t, 99)
	l, err := Open(Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ids := fill(t, l, pop)

	ctx := context.Background()
	first, err := l.SearchByModelContext(ctx, ids[0], "behavior", 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := l.QueryCacheStats(); misses == 0 {
		t.Fatal("first search reported no cache miss")
	}
	second, err := l.SearchByModelContext(ctx, ids[0], "behavior", 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := l.QueryCacheStats()
	if hits == 0 {
		t.Fatal("repeated search did not hit the cache")
	}
	if len(first) != len(second) {
		t.Fatalf("cached answer differs in length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].ID != second[i].ID || first[i].Score != second[i].Score {
			t.Fatalf("cached hit %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}

	// Ingest invalidates: the next search must miss again.
	missesBefore := func() uint64 { _, m := l.QueryCacheStats(); return m }()
	m0 := pop.Members[0]
	clone := *m0.Model
	clone.ID = ""
	if _, err := l.Ingest(&clone, m0.Card, registry.RegisterOptions{Name: "qc-refresh", Version: "1"}); err != nil {
		t.Fatal(err)
	}
	if l.qcache.len() != 0 {
		t.Fatalf("ingest left %d cache entries", l.qcache.len())
	}
	if _, err := l.SearchByModelContext(ctx, ids[0], "behavior", 5); err != nil {
		t.Fatal(err)
	}
	if missesAfter := func() uint64 { _, m := l.QueryCacheStats(); return m }(); missesAfter <= missesBefore {
		t.Fatal("search after ingest did not miss the invalidated cache")
	}
}

// TestLakeQueryCacheDisabled checks the DisableQueryCache escape hatch.
func TestLakeQueryCacheDisabled(t *testing.T) {
	pop := population(t, 98)
	l, err := Open(Config{Seed: 98, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ids := fill(t, l, pop)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := l.SearchByModelContext(ctx, ids[0], "behavior", 5); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := l.QueryCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %d hits / %d misses", hits, misses)
	}
}

// TestQueryCacheSkipsLongResults: the cache is sized for related-query lists;
// a request for more than maxCachedHits — MLQL's RANK BY similarity asks for
// the whole lake — is answered the same twice and never admitted, while the
// 17-hit path still hits.
func TestQueryCacheSkipsLongResults(t *testing.T) {
	c := newQueryCache(8)
	v := qcVec(1, 4)
	c.put("behavior", v, maxCachedHits+1, qcHits("a", "b"))
	if _, ok := c.get("behavior", v, maxCachedHits+1); ok || c.len() != 0 {
		t.Fatalf("a %d-hit request was admitted (len %d)", maxCachedHits+1, c.len())
	}
	c.put("behavior", v, maxCachedHits, qcHits("a", "b"))
	if _, ok := c.get("behavior", v, maxCachedHits); !ok {
		t.Fatalf("a %d-hit request was not admitted", maxCachedHits)
	}

	pop := population(t, 97)
	l, err := Open(Config{Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ids := fill(t, l, pop)
	whole := func() []search.Hit {
		hits, err := l.SearchByModel(ids[0], "behavior", maxCachedHits)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	first := whole()
	if len(first) != l.Count()-1 {
		t.Fatalf("whole-lake ranking returned %d of %d models", len(first), l.Count()-1)
	}
	sameHits(t, "whole-lake ranking, second call", whole(), first)
	if n := l.qcache.len(); n != 0 {
		t.Fatalf("whole-lake rankings left %d cache entries", n)
	}
	hits0, _ := l.QueryCacheStats()
	for i := 0; i < 2; i++ {
		if _, err := l.SearchByModel(ids[0], "behavior", 16); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := l.QueryCacheStats(); hits != hits0+1 || l.qcache.len() != 1 {
		t.Fatalf("17-hit path: %d cache hits, %d entries, want 1 and 1", hits-hits0, l.qcache.len())
	}
}
