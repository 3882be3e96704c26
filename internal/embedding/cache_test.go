package embedding

import (
	"fmt"
	"sync"
	"testing"

	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

func testModel(seed uint64) *model.Model {
	rng := xrand.New(seed)
	net := nn.NewMLP([]int{8, 6, 4}, nn.Tanh, rng)
	return &model.Model{ID: fmt.Sprintf("m%d", seed), Name: "m", Net: net}
}

func TestFingerprintTracksWeights(t *testing.T) {
	a := testModel(1)
	fpA, ok := Fingerprint(model.NewHandle(a))
	if !ok || fpA == "" {
		t.Fatal("open-weights model must fingerprint")
	}
	// Same weights → same fingerprint, regardless of identity.
	clone := &model.Model{ID: "other-id", Name: "other", Net: a.Net.Clone()}
	fpClone, _ := Fingerprint(model.NewHandle(clone))
	if fpClone != fpA {
		t.Fatal("identical weights produced different fingerprints")
	}
	// A perturbed weight → different fingerprint.
	clone.Net.W[0].Data[0] += 1e-9
	fpPerturbed, _ := Fingerprint(model.NewHandle(clone))
	if fpPerturbed == fpA {
		t.Fatal("changed weights kept the same fingerprint")
	}
	// Closed-weights models are not cacheable.
	if _, ok := Fingerprint(model.WithViews(a, model.ViewExtrinsic)); ok {
		t.Fatal("closed-weights model must not fingerprint")
	}
}

func TestVectorCacheRoundTrip(t *testing.T) {
	c := NewVectorCache()
	v := tensor.Vector{1.5, -2.25, 0, 1e-300}
	c.Put("weight", "fp1", v)
	// The cache keeps its own copy: mutating the caller's vector after Put,
	// or the returned one after Get, must not poison the entry.
	v[1] = 777
	got, ok := c.Get("weight", len(v), "fp1")
	if !ok {
		t.Fatal("miss after put")
	}
	want := tensor.Vector{1.5, -2.25, 0, 1e-300}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	got[0] = 999
	again, _ := c.Get("weight", len(v), "fp1")
	if again[0] != 1.5 {
		t.Fatal("cache entry aliased to caller's vector")
	}
	// Wrong dimension and wrong embedder are misses.
	if _, ok := c.Get("weight", len(v)+1, "fp1"); ok {
		t.Fatal("dimension mismatch served from cache")
	}
	if _, ok := c.Get("behavior", len(v), "fp1"); ok {
		t.Fatal("other embedder's entry served")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses, want 2/2", hits, misses)
	}
}

// TestVectorCacheResetsAtCap: the memo is bounded — the insert that would
// exceed the cap starts a fresh map instead of growing without limit.
func TestVectorCacheResetsAtCap(t *testing.T) {
	c := NewVectorCache()
	for i := 0; i < vectorCacheMemEntries; i++ {
		c.Put("e", fmt.Sprintf("fp%d", i), tensor.Vector{float64(i)})
	}
	if _, ok := c.Get("e", 1, "fp0"); !ok {
		t.Fatal("entry evicted below the cap")
	}
	c.Put("e", "one-more", tensor.Vector{-1})
	if _, ok := c.Get("e", 1, "fp0"); ok {
		t.Fatal("cap reached but old entries survived")
	}
	if got, ok := c.Get("e", 1, "one-more"); !ok || got[0] != -1 {
		t.Fatalf("entry that triggered the reset was lost: %v %v", got, ok)
	}
	c.mu.RLock()
	n := len(c.mem)
	c.mu.RUnlock()
	if n != 1 {
		t.Fatalf("map holds %d entries after reset, want 1", n)
	}
}

// TestCachedEmbedderHitsAndRecomputes: second embed of the same weights is
// a cache hit with an identical vector; a fresh cache recomputes the same
// vector; a restricted handle bypasses the cache.
func TestCachedEmbedderHitsAndRecomputes(t *testing.T) {
	cache := NewVectorCache()
	inner := NewWeightEmbedder(8, 2, 5)
	emb := NewCached(inner, cache)
	m := testModel(2)
	h := model.NewHandle(m)

	first, err := emb.Embed(h)
	if err != nil {
		t.Fatal(err)
	}
	second, err := emb.Embed(h)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Fatalf("second embed was not a cache hit (hits=%d)", hits)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached vector differs at %d: %v != %v", i, second[i], first[i])
		}
	}

	// Nothing outlives the cache value: a fresh one misses and recomputes
	// the exact same vector.
	freshCache := NewVectorCache()
	fresh := NewCached(inner, freshCache)
	recomputed, err := fresh.Embed(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if recomputed[i] != first[i] {
			t.Fatalf("recomputed vector differs at %d", i)
		}
	}
	if h, m := freshCache.Stats(); h != 0 || m != 1 {
		t.Fatalf("fresh cache stats = %d hits %d misses, want 0/1", h, m)
	}

	// Closed-weights handles bypass the cache entirely (BehaviorEmbedder
	// can still embed them; the result is just never cached).
	be := NewBehaviorEmbedder(8, 4, 8, 5)
	cc := NewVectorCache()
	cachedBE := NewCached(be, cc)
	if _, err := cachedBE.Embed(model.WithViews(m, model.ViewExtrinsic)); err != nil {
		t.Fatal(err)
	}
	if h, m := cc.Stats(); h != 0 || m != 0 {
		t.Fatalf("uncacheable model touched the cache: %d/%d", h, m)
	}

	// NewCached with a nil cache is the identity.
	if NewCached(inner, nil) != Embedder(inner) {
		t.Fatal("nil cache should return the inner embedder")
	}
}

// TestVectorCacheConcurrent hammers Put/Get from many goroutines over
// overlapping keys; -race is the assertion, plus every hit must be correct.
func TestVectorCacheConcurrent(t *testing.T) {
	c := NewVectorCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("fp%d", i%10)
				want := tensor.Vector{float64(i % 10), 1}
				c.Put("e", key, want)
				if got, ok := c.Get("e", 2, key); ok && got[0] != want[0] {
					t.Errorf("got %v for key %s", got, key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
