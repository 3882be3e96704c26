// Package lake is the model lake itself: the facade that wires storage,
// registry, indexing, and every lake task (§3) and application (§6) into the
// system Figure 2 of the paper sketches. Users ingest models with their
// cards, then search (keyword, content-based, task-based, hybrid, or via
// declarative MLQL queries), reconstruct version graphs, attribute behaviour
// to training data, draft documentation, audit, and cite.
package lake

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"modellake/internal/benchmark"
	"modellake/internal/blob"
	"modellake/internal/card"
	"modellake/internal/data"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/obs"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/version"
)

// Lake-level metrics. These time the facade operations end to end (storage
// plus embedding plus indexing), the numbers a capacity plan actually needs.
var (
	mIngests = obs.Default().Counter("lake_ingests_total")
	// Summed over every lake in the process (a cluster holds one per shard
	// and replica). An embed hit is a query vector read from the row the
	// index stores; a miss is an embedder run (ingest, rehydrate fallback,
	// an external or unindexed query model).
	mQueryCacheHits   = obs.Default().Counter("lake_query_cache_hits_total")
	mQueryCacheMisses = obs.Default().Counter("lake_query_cache_misses_total")
	mEmbedHits        = obs.Default().Counter("lake_embed_cache_hits_total")
	mEmbedMisses      = obs.Default().Counter("lake_embed_cache_misses_total")

	mIngestDur  = obs.Default().Histogram("lake_ingest_duration_seconds", nil)
	mQueryDur   = obs.Default().Histogram("lake_query_duration_seconds", nil)
	mKwDrainDur = obs.Default().Histogram("lake_keyword_drain_seconds", nil)
	mSearchDurs = func(kind string) *obs.Histogram {
		return obs.Default().Histogram("lake_search_duration_seconds", nil, obs.L("kind", kind))
	}
	// Why a reopen re-embedded an open-weights model instead of reading its
	// vec record: there is none (pre-vec lake), it was written under other
	// embedding parameters, or it is damaged.
	mVecFallbacks = map[string]*obs.Counter{
		vecMissing:   vecFallbackCounter(vecMissing),
		vecNamespace: vecFallbackCounter(vecNamespace),
		vecCorrupt:   vecFallbackCounter(vecCorrupt),
	}
)

func vecFallbackCounter(reason string) *obs.Counter {
	return obs.Default().Counter("lake_vec_record_fallbacks_total", obs.L("reason", reason))
}

// Lake is a model lake instance. It is safe for concurrent use.
type Lake struct {
	cfg    Config
	kv     *kvstore.Store
	blobs  blob.Store
	reg    *registry.Registry
	prov   *provenance.Journal
	runner *benchmark.Runner

	keyword    *search.ShardedKeywordIndex
	behaviorCS *search.ContentSearcher
	weightCS   *search.ContentSearcher
	taskSearch *search.TaskSearcher
	qcache     *queryCache // nil when disabled
	vecNS      string      // namespace stamped into persisted vec records

	mu         sync.RWMutex
	closed     bool
	modelCache map[string]*model.Model // loaded models, and closed-weights ones' only copy
	benchmarks map[string]*benchmark.Benchmark
	datasets   map[string]*data.Dataset
	graph      *version.Graph // cached reconstruction; nil when stale
	gen        uint64         // population generation: bumped by every commit that registers a model

	// Derived state that loads on first use (see commit): behaviour-indexed
	// ids whose roster handles are not loaded yet, and the cards a reopen
	// left for the first keyword search to index.
	taskBacklog backlog
	kwBacklog   backlog
}

// Close releases the lake's storage: the metadata store and, for
// disk-resident lakes, the segment files the content indexes keep open for
// pread rescoring.
func (l *Lake) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	var err error
	if l.cfg.DiskResidentPostings {
		// Publish the keyword map tiers so the next Open adopts complete
		// segments instead of re-tokenizing the corpus. Flush failures are
		// not fatal to Close — segments are derived state and whatever
		// did not publish simply rebuilds from cards.
		err = l.keyword.Flush()
	}
	l.keyword.Close()
	if cerr := l.kv.Close(); err == nil {
		err = cerr
	}
	if cerr := l.behaviorCS.Close(); err == nil {
		err = cerr
	}
	if cerr := l.weightCS.Close(); err == nil {
		err = cerr
	}
	return err
}

// Ready reports whether the lake can serve requests: the metadata store is
// open and the in-memory indexes are built (rehydration completes inside
// Open, so an open lake is an indexed lake). It backs the server's /readyz
// readiness probe; Close flips it permanently.
func (l *Lake) Ready() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return errors.New("lake: closed")
	}
	if _, err := l.kv.Get("meta/seq"); err != nil && errors.Is(err, kvstore.ErrClosed) {
		return fmt.Errorf("lake: metadata store: %w", err)
	}
	return nil
}

// Count returns the number of models in the lake.
func (l *Lake) Count() int { return l.reg.Count() }

// TierMemStats breaks the lake's index-resident heap down by storage tier.
// The three byte counts use the same accounting heuristics (16-byte string
// headers, 48-byte map buckets), so the numbers are comparable across tiers
// and across lake configurations — a disk-resident lake's vector and
// postings tiers shrink to their in-RAM metadata while KV stays put.
type TierMemStats struct {
	VectorBytes   int64 `json:"vector_bytes"`   // both content-space ANN indexes
	PostingsBytes int64 `json:"postings_bytes"` // keyword index, map tier + segments
	KVBytes       int64 `json:"kv_bytes"`       // metadata store's resident state: keys, inline values, references
	// Value bytes the metadata store does not hold: left in its log and read
	// back by reference (vec records, chiefly). Disk, not heap.
	KVReferencedBytes int64 `json:"kv_referenced_bytes"`
	// Where the keyword index's documents sit: the map tier is the write
	// buffer, segments are the read tier.
	KeywordMapDocs     int `json:"keyword_map_docs"`
	KeywordSegmentDocs int `json:"keyword_segment_docs"`
}

// TierMemStats reports the lake's current per-tier index memory. The keyword
// tier is drained first so a freshly opened lake reports its real postings
// footprint rather than the lazy-rehydrate queue's zero.
func (l *Lake) TierMemStats() TierMemStats {
	l.ensureKeyword()
	mapDocs, segDocs := l.keyword.TierDocs()
	kvResident, kvReferenced := l.kv.ApproxMemBytes()
	return TierMemStats{
		VectorBytes:        l.behaviorCS.MemBytes() + l.weightCS.MemBytes(),
		PostingsBytes:      l.keyword.MemBytes(),
		KVBytes:            kvResident,
		KVReferencedBytes:  kvReferenced,
		KeywordMapDocs:     mapDocs,
		KeywordSegmentDocs: segDocs,
	}
}

// Model returns a full-view handle for a lake model.
func (l *Lake) Model(id string) (*model.Handle, error) {
	l.mu.RLock()
	m, ok := l.modelCache[id]
	l.mu.RUnlock()
	if ok {
		return model.NewHandle(m), nil
	}
	m, err := l.reg.LoadModel(id)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.modelCache[id] = m
	l.mu.Unlock()
	return model.NewHandle(m), nil
}

// Record returns a model's registry record.
func (l *Lake) Record(id string) (*registry.Record, error) { return l.reg.Get(id) }

// Records lists all registry records.
func (l *Lake) Records() ([]*registry.Record, error) { return l.reg.List() }

// Card returns a model's card.
func (l *Lake) Card(id string) (*card.Card, error) { return l.reg.Card(id) }

// PutCard replaces a model's card and refreshes the keyword index.
func (l *Lake) PutCard(id string, c *card.Card) error {
	if err := l.reg.PutCard(id, c); err != nil {
		return err
	}
	if err := l.commit([]change{{id: id, card: c}}); err != nil {
		return fmt.Errorf("lake: refresh keyword index: %w", err)
	}
	return nil
}

// Resolve maps name@version to a model ID.
func (l *Lake) Resolve(name, ver string) (string, error) { return l.reg.Resolve(name, ver) }

// datasetMeta is the durable record of a registered dataset: enough for
// version-closure reasoning and cataloging without persisting the feature
// matrices themselves.
type datasetMeta struct {
	ID       string `json:"id"`
	ParentID string `json:"parent_id,omitempty"`
	Domain   string `json:"domain,omitempty"`
	Rows     int    `json:"rows"`
	Classes  int    `json:"classes"`
}

// RegisterDataset makes a dataset known to the lake (for TRAINED ON queries
// and dataset-version reasoning). Its metadata — including the version
// lineage — is persisted, so declarative queries over dataset versions keep
// working after the lake is reopened.
func (l *Lake) RegisterDataset(ds *data.Dataset) error {
	l.mu.Lock()
	l.datasets[ds.ID] = ds
	l.mu.Unlock()
	meta := datasetMeta{ID: ds.ID, ParentID: ds.ParentID, Domain: ds.Domain,
		Rows: ds.Len(), Classes: ds.NumClasses}
	b, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("lake: marshal dataset meta: %w", err)
	}
	if err := l.kv.Put("dataset/"+ds.ID, b); err != nil {
		return fmt.Errorf("lake: persist dataset %s: %w", ds.ID, err)
	}
	return nil
}

// DatasetLineage returns the persisted (ID → parent ID) map of all
// registered datasets, the basis for "VERSIONS OF" query closure.
func (l *Lake) DatasetLineage() (map[string]string, error) {
	out := map[string]string{}
	var decodeErr error
	err := l.kv.Scan("dataset/", func(k string, v []byte) bool {
		var meta datasetMeta
		if err := json.Unmarshal(v, &meta); err != nil {
			decodeErr = fmt.Errorf("lake: decode %s: %w", k, err)
			return false
		}
		out[meta.ID] = meta.ParentID
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decodeErr
}

// RegisterBenchmark adds a benchmark to the lake's suite.
func (l *Lake) RegisterBenchmark(b *benchmark.Benchmark) {
	l.mu.Lock()
	l.benchmarks[b.ID] = b
	l.mu.Unlock()
}

// Benchmarks lists registered benchmarks sorted by ID.
func (l *Lake) Benchmarks() []*benchmark.Benchmark {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]*benchmark.Benchmark, 0, len(l.benchmarks))
	for _, b := range l.benchmarks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Score runs (or fetches the cached score of) a model on a benchmark. A
// cached score is keyed by the model's ID alone, so it is read before, and
// instead of, loading the model.
func (l *Lake) Score(modelID, benchID string) (float64, error) {
	l.mu.RLock()
	b, ok := l.benchmarks[benchID]
	l.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("lake: unknown benchmark %q", benchID)
	}
	if s, ok, err := l.runner.Cached(modelID, b); ok || err != nil {
		return s, err
	}
	h, err := l.Model(modelID)
	if err != nil {
		return 0, err
	}
	return l.runner.Score(h, b)
}

// Provenance exposes the journal for why/where queries.
func (l *Lake) Provenance() *provenance.Journal { return l.prov }

// Compact rewrites the metadata log to contain only live records — useful
// after heavy card churn or score-cache turnover on a long-lived lake.
func (l *Lake) Compact() error { return l.kv.Compact() }
