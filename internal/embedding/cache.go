package embedding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"

	"modellake/internal/model"
	"modellake/internal/tensor"
)

// This file is the in-process embedding memo: embedding a model is the
// CPU-heavy stage of indexing, and related-model queries and repeated
// lake-task experiments embed the same weights again and again. The memo is
// content-addressed — keyed by (embedder name, SHA-256 of the model's
// flattened weights) — so a cached vector can only ever be returned for the
// exact function application that produced it. It is never persisted: the
// durable copy of an ingested model's embedding is the lake's vec/<id>
// record, and anything else is recomputed.

// Fingerprint returns a content hash of the model's parameters θ, the cache
// key component that changes iff the weights change. Models that withhold
// intrinsics report ok=false and are not cacheable (their behaviour cannot
// be tied to a stable content address).
func Fingerprint(h *model.Handle) (string, bool) {
	w, err := h.Weights()
	if err != nil {
		return "", false
	}
	hash := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(w)))
	hash.Write(buf[:])
	for _, x := range w {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		hash.Write(buf[:])
	}
	return hex.EncodeToString(hash.Sum(nil)), true
}

// VectorCache memoizes embedding vectors keyed by (embedder name, weights
// fingerprint) in a bounded in-process map. One cache must only ever see one
// embedding configuration: every parameter that changes embedder output
// (probe seeds, dimensions, counts) is fixed for the embedders it wraps. All
// methods are safe for concurrent use.
type VectorCache struct {
	mu  sync.RWMutex
	mem map[string]tensor.Vector

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewVectorCache returns an empty cache.
func NewVectorCache() *VectorCache {
	return &VectorCache{mem: make(map[string]tensor.Vector)}
}

// Stats reports cache hits and misses since construction.
func (c *VectorCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// vectorCacheMemEntries bounds the map. It is a recompute accelerator, not a
// source of truth, so when it fills up it is simply reset — an O(1) eviction
// that keeps a sustained ingest of fresh fingerprints (each a guaranteed
// miss) from pinning every embedding the lake has ever produced in RAM.
const vectorCacheMemEntries = 8192

func (c *VectorCache) memKey(embedder, fp string) string {
	return embedder + "\x00" + fp
}

// Get returns the cached vector for (embedder, fp) if present and valid.
// dim guards against entries written by a differently-shaped embedder:
// mismatches are treated as misses. The returned vector is a copy the
// caller may mutate.
func (c *VectorCache) Get(embedder string, dim int, fp string) (tensor.Vector, bool) {
	key := c.memKey(embedder, fp)
	c.mu.RLock()
	v, ok := c.mem[key]
	c.mu.RUnlock()
	if ok && len(v) == dim {
		c.hits.Add(1)
		return v.Clone(), true
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores a copy of v under (embedder, fp), resetting the map first when
// it is at the entry cap.
func (c *VectorCache) Put(embedder, fp string, v tensor.Vector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.mem) >= vectorCacheMemEntries {
		c.mem = make(map[string]tensor.Vector, vectorCacheMemEntries/4)
	}
	c.mem[c.memKey(embedder, fp)] = v.Clone()
}

// Cached wraps an embedder with a vector cache. It must only wrap embedders
// whose output is a pure function of the model's weights (weight-space,
// behavioural, and hybrids of those): the cache key is the weights hash, so
// an embedder that also reads external state — e.g. CardEmbedder, which
// reads the card text — would serve stale vectors.
type Cached struct {
	Inner Embedder
	Cache *VectorCache
}

// NewCached wraps inner with cache; a nil cache returns inner unchanged.
func NewCached(inner Embedder, cache *VectorCache) Embedder {
	if cache == nil {
		return inner
	}
	return &Cached{Inner: inner, Cache: cache}
}

// Name implements Embedder.
func (e *Cached) Name() string { return e.Inner.Name() }

// Dim implements Embedder.
func (e *Cached) Dim() int { return e.Inner.Dim() }

// Embed implements Embedder: cache hit, else compute and remember. Models
// without a stable fingerprint bypass the cache entirely.
func (e *Cached) Embed(h *model.Handle) (tensor.Vector, error) {
	fp, ok := Fingerprint(h)
	if !ok {
		return e.Inner.Embed(h)
	}
	if v, ok := e.Cache.Get(e.Inner.Name(), e.Inner.Dim(), fp); ok {
		return v, nil
	}
	v, err := e.Inner.Embed(h)
	if err != nil {
		return nil, err
	}
	e.Cache.Put(e.Inner.Name(), fp, v)
	return v, nil
}
