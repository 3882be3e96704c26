// Package lake is the model lake itself: the facade that wires storage,
// registry, indexing, and every lake task (§3) and application (§6) into the
// system Figure 2 of the paper sketches. Users ingest models with their
// cards, then search (keyword, content-based, task-based, hybrid, or via
// declarative MLQL queries), reconstruct version graphs, attribute behaviour
// to training data, draft documentation, audit, and cite.
package lake

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modellake/internal/fault"
	"modellake/internal/obs"

	"modellake/internal/attribution"
	"modellake/internal/audit"
	"modellake/internal/benchmark"
	"modellake/internal/blob"
	"modellake/internal/card"
	"modellake/internal/data"
	"modellake/internal/docgen"
	"modellake/internal/embedding"
	"modellake/internal/index"
	"modellake/internal/kvstore"
	"modellake/internal/mlql"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/tensor"
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

// Config configures a lake.
type Config struct {
	// Dir is the storage directory; empty means fully in-memory.
	Dir string
	// Sync fsyncs the metadata log on every write.
	Sync bool
	// InputDim / MaxClasses shape the shared behavioural probe space.
	// Models with other shapes are still stored and weight-indexed but not
	// behaviour-indexed. Defaults: 8 and 8.
	InputDim   int
	MaxClasses int
	// Probes is the behavioural probe count (default 32).
	Probes int
	// Seed drives all lake-internal randomness (PQ codebook training,
	// probe generation, weight-space probes).
	Seed uint64
	// The content indexes are exact flat indexes with one read path
	// (DESIGN.md §12) and two independent choices: which approximate tier
	// ranks the rows first — none by default, Quantize, or PQSubspaces —
	// and where the full-precision rows live — RAM by default, or
	// DiskResidentVectors. With a tier, a search ranks every row by an
	// approximate distance, keeps a k·RescoreFactor shortlist and rescores
	// it with the exact full-precision arithmetic, so the answer is bitwise
	// identical to the plain scan whenever the shortlist recalls the true
	// top-k — and unconditionally when k·RescoreFactor covers the lake.
	//
	// Quantize selects the int8 tier: 1 byte per vector component instead
	// of 8, and the most faithful ranking of the two.
	Quantize bool
	// PQSubspaces selects the product-quantized tier (DESIGN.md §14)
	// instead: each content vector is coded as this many one-byte subspace
	// centroids (values above the vector dimension clamp to it) and ranked
	// by an ADC lookup-table scan — a fraction of the int8 tier's resident
	// bytes, and a coarser ranking: measured through the HTTP benchmark at
	// the default RescoreFactor, 46–101 of 4160 related answers differed
	// from the flat scan (none at factor 64). Codebooks train
	// deterministically from Seed once an index holds 256 rows; below that
	// searches are plain exact scans. The tiers are alternatives:
	// incompatible with Quantize.
	PQSubspaces int
	// RescoreFactor overrides the tier's shortlist over-fetch multiplier.
	// Zero means the index default (index.DefaultRescoreFactor); non-zero
	// values require Quantize, PQSubspaces, or DiskResidentVectors and must
	// be at least MinRescoreFactor.
	RescoreFactor int
	// DiskResidentVectors moves the full-precision content vectors into
	// page-cache-friendly on-disk segments (Dir/vectors/<space>.seg): only
	// the ranking tier stays resident — the int8 tier unless PQSubspaces is
	// set — and only the shortlist rows are paged in for the exact rescore.
	// Requires Dir. Models ingested after Open are served from a bounded
	// in-RAM tail that spills into the segment as it fills — the persisted
	// vec records stay the durable source of truth, so a torn or stale
	// segment is simply rebuilt.
	DiskResidentVectors bool
	// DiskResidentPostings moves the keyword index's compact postings
	// segments onto disk (Dir/postings/kw-NN.seg): merges publish
	// checksummed segment files and queries pread only the blocks the
	// block-max scorer cannot prune, so a 100k+ lake no longer holds all
	// BM25 postings on heap. Requires Dir. Answers are bitwise-identical
	// to the in-RAM index; segments are derived state, verified against
	// the current cards on reopen and rebuilt from them on any damage.
	DiskResidentPostings bool
	// KeywordMergeThreshold overrides how many freshly written documents a
	// keyword shard's map tier buffers before merging into its compact
	// segment. Zero means the default (search.DefaultKeywordMergeThreshold);
	// negative disables segments, keeping the pure map-tier behaviour. A
	// reopened lake's cards are bulk-built into segments on the first
	// keyword request whatever the (non-negative) threshold.
	KeywordMergeThreshold int
	// IngestParallelism bounds the worker pool used by batch ingest (the
	// embed stage), rehydration, and the keyword drain. Zero or negative
	// means GOMAXPROCS. Single-model Ingest is unaffected.
	IngestParallelism int
	// DisableQueryCache turns off the invalidate-on-write LRU over
	// content-search results (keyed by space + query-vector hash + k).
	// By default repeated related-model queries against an unchanged lake
	// are served from the cache without touching the ANN index.
	DisableQueryCache bool
	// QueryCacheSize caps the query-result cache entry count. Zero or
	// negative means the default (1024).
	QueryCacheSize int
	// VerifyBlobsOnOpen makes reopen read and checksum-verify every
	// weights blob (a full integrity sweep, O(total weight bytes)). By
	// default reopen only checks that every registered blob exists:
	// blob writes are atomic, every read checksum-verifies before
	// returning, so tampering is still detected on first use — while
	// Open stays O(records) no matter how large the weights are.
	VerifyBlobsOnOpen bool
	// FS routes all storage IO (metadata log and blob store) through a
	// fault-injectable filesystem — the test hook behind the lake's
	// crash-consistency suite. Nil uses the real filesystem.
	FS *fault.FS
	// BlobDir overrides the blob store location (default Dir/blobs). A
	// replica lake points it at its leader's blob directory: blobs are
	// immutable and content-addressed, so sharing the directory is the
	// embedded equivalent of leader and replicas reading one object store,
	// and WAL shipping only needs to carry metadata. Ignored for in-memory
	// lakes (empty Dir).
	BlobDir string
	// Follower marks this lake a WAL-shipping replica: its log must stay a
	// byte-identical prefix of its leader's, so nothing on the read path may
	// append to it. The one read path that writes is benchmark scoring
	// (scores cache durably); Follower redirects that cache to a private
	// in-memory store. Scores are deterministic, so a replica recomputing
	// one returns bit-identical results to the leader's cached copy.
	Follower bool
}

func (c Config) withDefaults() Config {
	if c.InputDim <= 0 {
		c.InputDim = 8
	}
	if c.MaxClasses <= 0 {
		c.MaxClasses = 8
	}
	if c.Probes <= 0 {
		c.Probes = 32
	}
	return c
}

// MinRescoreFactor is the lowest shortlist over-fetch multiplier a lake
// accepts for its quantized read tier. The index layer allows factor 1 so
// tests can construct recall misses on purpose; a production lake gets the
// floor, below which adversarially bunched vectors can push the true top-k
// out of the quantized shortlist and silently degrade exactness.
const MinRescoreFactor = 4

// validate rejects config combinations the lake cannot honor, before any
// storage is touched.
func (c Config) validate() error {
	if c.PQSubspaces < 0 {
		return fmt.Errorf("lake: PQSubspaces %d is negative", c.PQSubspaces)
	}
	if c.PQSubspaces > 0 && c.Quantize {
		return errors.New("lake: PQSubspaces and Quantize are alternative resident tiers; choose one")
	}
	if c.RescoreFactor != 0 {
		if !c.Quantize && c.PQSubspaces == 0 && !c.DiskResidentVectors {
			return errors.New("lake: RescoreFactor requires Quantize, PQSubspaces, or DiskResidentVectors")
		}
		if c.RescoreFactor < MinRescoreFactor {
			return fmt.Errorf("lake: RescoreFactor %d below minimum %d", c.RescoreFactor, MinRescoreFactor)
		}
	}
	if c.DiskResidentVectors && c.Dir == "" {
		return errors.New("lake: DiskResidentVectors requires Dir")
	}
	if c.DiskResidentPostings && c.Dir == "" {
		return errors.New("lake: DiskResidentPostings requires Dir")
	}
	return nil
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
	modelCache map[string]*model.Model // live models (incl. closed-weight ones)
	benchmarks map[string]*benchmark.Benchmark
	datasets   map[string]*data.Dataset
	graph      *version.Graph // cached reconstruction; nil when stale

	// Task-search roster, built lazily after a fast rehydrate: taskPending
	// holds behaviour-indexed model IDs whose handles have not been loaded
	// yet; the first SearchTask drains it. rosterMu serializes the drain so
	// concurrent searches never see a half-built roster.
	rosterMu    sync.Mutex
	taskReady   bool     // guarded by mu
	taskPending []string // guarded by mu

	// Keyword index backlog, same lazy pattern: card loads and tokenization
	// move off the reopen path onto the first keyword (or hybrid) search.
	kwMu      sync.Mutex
	kwReady   bool     // guarded by mu
	kwPending []string // guarded by mu
}

// Open creates or opens a lake.
func Open(cfg Config) (*Lake, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var kv *kvstore.Store
	var blobs blob.Store
	if cfg.Dir == "" {
		kv = kvstore.OpenMemory()
		blobs = blob.NewMemStore()
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("lake: create directory: %w", err)
		}
		// Older lakes carry a per-model embedding file cache here that
		// nothing reads (vec records are the only durable embeddings);
		// reclaim the bytes. Best-effort: a failure costs disk space,
		// never Open.
		_ = os.RemoveAll(filepath.Join(cfg.Dir, "embedcache"))
		var err error
		kv, err = kvstore.Open(filepath.Join(cfg.Dir, "lake.log"), kvstore.Options{Sync: cfg.Sync, FS: cfg.FS})
		if err != nil {
			return nil, fmt.Errorf("lake: open metadata: %w", err)
		}
		blobDir := cfg.BlobDir
		if blobDir == "" {
			blobDir = filepath.Join(cfg.Dir, "blobs")
		}
		blobs, err = blob.NewFileStoreFS(blobDir, cfg.FS)
		if err != nil {
			kv.Close()
			return nil, fmt.Errorf("lake: open blobs: %w", err)
		}
	}
	scoreKV := kv
	if cfg.Follower {
		scoreKV = kvstore.OpenMemory()
	}
	kwCfg := search.KeywordConfig{MergeThreshold: cfg.KeywordMergeThreshold}
	if cfg.DiskResidentPostings {
		kwCfg.Dir = filepath.Join(cfg.Dir, "postings")
		kwCfg.FS = cfg.FS
	}
	l := &Lake{
		cfg:        cfg,
		kv:         kv,
		blobs:      blobs,
		reg:        registry.New(kv, blobs),
		prov:       provenance.NewJournal(kv),
		runner:     benchmark.NewRunner(scoreKV),
		keyword:    search.NewShardedKeywordIndexConfig(kwCfg),
		taskSearch: &search.TaskSearcher{},
		modelCache: map[string]*model.Model{},
		benchmarks: map[string]*benchmark.Benchmark{},
		datasets:   map[string]*data.Dataset{},
		taskReady:  true,
		kwReady:    true,
	}
	// The namespace folds in every config knob that changes embedder
	// output, so a lake reopened with different embedding parameters can
	// never read vec records computed under the old ones.
	l.vecNS = fmt.Sprintf("in%d_mc%d_p%d_s%d", cfg.InputDim, cfg.MaxClasses, cfg.Probes, cfg.Seed)
	if !cfg.DisableQueryCache {
		l.qcache = newQueryCache(cfg.QueryCacheSize)
	}
	l.behaviorCS = search.NewContentSearcher(
		embedding.NewBehaviorEmbedder(cfg.InputDim, cfg.Probes, cfg.MaxClasses, cfg.Seed),
		l.newIndex())
	l.weightCS = search.NewContentSearcher(
		embedding.NewWeightEmbedder(32, 4, cfg.Seed+1),
		l.newIndex())

	// Rehydrate indexes from a previously persisted lake.
	if err := l.rehydrate(); err != nil {
		kv.Close()
		return nil, err
	}
	obs.Default().GaugeFunc("keyword_map_docs", func() float64 {
		m, _ := l.keyword.TierDocs()
		return float64(m)
	})
	obs.Default().GaugeFunc("keyword_segment_docs", func() float64 {
		_, g := l.keyword.TierDocs()
		return float64(g)
	})
	return l, nil
}

func (l *Lake) newIndex() index.Index {
	if l.cfg.PQSubspaces > 0 {
		return index.NewFlatPQ(index.Cosine, l.quantConfig())
	}
	if l.cfg.Quantize || l.cfg.DiskResidentVectors {
		return index.NewFlatQuantized(index.Cosine, l.quantConfig())
	}
	return index.NewFlat(index.Cosine)
}

func (l *Lake) quantConfig() index.QuantConfig {
	return index.QuantConfig{
		RescoreFactor: l.cfg.RescoreFactor,
		PQSubspaces:   l.cfg.PQSubspaces,
		Seed:          l.cfg.Seed,
	}
}

// hydrated is the per-record product of the parallel rehydrate stage.
type hydrated struct {
	bvec, wvec tensor.Vector // content-index vectors; nil = space not indexable
	miss       string        // why the fallback ran (a vec* reason); "" when it did not
	missErr    error         // what was wrong with the record, for vecCorrupt
	err        error         // hard failure: Open must not succeed
}

// hydrateWindow is how many records rehydrate decodes ahead of the serial
// commit: the window's vectors are the only ones Open holds outside the
// indexes, so the transient heap of a reopen is this many vec records (a few
// MB), not the lake's worth.
const hydrateWindow = 1024

// rehydrate rebuilds the in-memory indexes from the durable registry.
//
// The per-model work — weights-blob checksum verification plus either a
// persisted-vector decode (the fast path) or a full model decode + embed
// (the fallback) — runs on a bounded worker pool, a window of records at a
// time; each window's index inserts then happen serially in record order, so
// the resulting indexes are identical to a serial loop no matter how the
// workers interleaved, and the window's vectors are dropped before the next
// is decoded.
//
// The fast path reads the vec/<id> record written in the same atomic batch
// as the registration: when its namespace matches the lake's embedding
// config, the stored vectors go straight into the ANN indexes and the model
// is never decoded (handles load lazily on first use). Weights blobs are
// existence-checked — a registered blob that went missing fails Open loudly
// — but their contents are not re-read unless VerifyBlobsOnOpen requests
// the full integrity sweep: blob writes are atomic and every later Get
// checksum-verifies, so fast Open stays O(records) instead of O(weight
// bytes). Records without usable vectors (pre-vec lakes, changed
// embedding config, a damaged record) read, verify, decode, and re-embed.
func (l *Lake) rehydrate() error {
	recs, err := l.reg.List()
	if err != nil {
		return fmt.Errorf("lake: rehydrate: %w", err)
	}
	// Adopt published keyword postings segments before queuing the keyword
	// backlog: a segment whose covered documents all still match their
	// current card text (by CRC) serves those documents straight from
	// disk, and only the uncovered rest goes onto the lazy kwPending
	// queue. A stale or damaged segment file is rejected whole and its
	// documents rebuild from cards like any other reopen.
	kwCovered := map[string]bool{}
	if l.cfg.DiskResidentPostings && len(recs) > 0 {
		for _, id := range l.keyword.AdoptSegments(func(docID string, crc uint64) bool {
			c, err := l.reg.Card(docID)
			return err == nil && search.TextCRC(c.Text()) == crc
		}) {
			kwCovered[id] = true
		}
	}
	// One directory sweep answers every existence check: bulk-listing the
	// blob store costs a few hundred syscalls where per-record Stat calls
	// would cost one each. The snapshot is taken before hydration starts;
	// Open is not concurrent with ingest on the same Lake, so it cannot
	// miss a registered blob.
	var known map[blob.ID]struct{}
	if lister, ok := l.blobs.(interface{ IDs() []blob.ID }); ok && !l.cfg.VerifyBlobsOnOpen && len(recs) > 0 {
		ids := lister.IDs()
		known = make(map[blob.ID]struct{}, len(ids))
		for _, id := range ids {
			known[id] = struct{}{}
		}
	}
	// Where a rehydrated vector goes. A disk-resident lake's belong in the
	// on-disk segments, not the in-RAM indexes: per space it keeps only
	// which records have one and a running checksum of them, which the
	// adoption below compares with the segment a previous run left. An
	// in-RAM index takes the vector itself, pre-sized when the first one
	// shows its dimension — every open-weights record is about to add one
	// (bar the rare model a space cannot embed), so the packed flat storage
	// allocates once instead of doubling its way up through the appends.
	disk := l.cfg.DiskResidentVectors
	var bSeg, wSeg diskSpace
	openWeights := 0
	for _, rec := range recs {
		if rec.Weights != "" {
			openWeights++
		}
	}
	place := func(cs *search.ContentSearcher, seg *diskSpace, rec int, vec tensor.Vector) bool {
		if disk {
			seg.add(rec, recs[rec].ID, vec)
			return true
		}
		if cs.Len() == 0 {
			cs.Reserve(openWeights, len(vec))
		}
		return cs.AddVector(recs[rec].ID, vec) == nil
	}
	var corrupt int
	var firstCorrupt string
	res := make([]hydrated, min(hydrateWindow, len(recs)))
	for lo := 0; lo < len(recs); lo += len(res) {
		win := recs[lo:min(lo+len(res), len(recs))]
		runParallel(len(win), l.cfg.IngestParallelism, func(i int) {
			res[i] = l.hydrateOne(win[i], known)
		})
		// Commit in record order. Keyword entries (for every carded model,
		// closed-weights included) are deferred to the first keyword
		// search; content vectors insert now, only where a space could
		// embed the model.
		for i, rec := range win {
			h := res[i]
			res[i] = hydrated{}
			if !kwCovered[rec.ID] {
				l.kwPending = append(l.kwPending, rec.ID)
				l.kwReady = false
			}
			if h.err != nil {
				return h.err
			}
			if h.miss != "" {
				mVecFallbacks[h.miss].Inc()
				if h.miss == vecCorrupt {
					if corrupt++; corrupt == 1 {
						firstCorrupt = fmt.Sprintf("%s: %v", rec.ID, h.missErr)
					}
				}
			}
			if h.bvec != nil && place(l.behaviorCS, &bSeg, lo+i, h.bvec) {
				// Defer handle loading: the task roster materializes on
				// first SearchTask instead of costing every reopen a model
				// decode per behaviour-indexed record.
				l.taskPending = append(l.taskPending, rec.ID)
				l.taskReady = false
			}
			if h.wvec != nil {
				place(l.weightCS, &wSeg, lo+i, h.wvec)
			}
		}
	}
	if corrupt > 0 {
		// Once per Open: a damaged vec record costs a re-embed at every
		// reopen until the model is re-ingested, and nothing else says so.
		log.Printf("lake: %d damaged vec record(s) ignored on open, model(s) re-embedded from weights; first: %s",
			corrupt, firstCorrupt)
	}
	if disk {
		// Even an empty disk-resident lake adopts (possibly empty) on-disk
		// segments so that post-open ingests land in the spilling disk tier
		// instead of accumulating full-precision rows in RAM forever. Only a
		// rebuild needs the vectors again, and re-reads each from its record.
		again := func(seg *diskSpace, i int) hydrated { return l.hydrateOne(recs[seg.recs[i]], known) }
		if err := l.adoptDiskIndex(l.behaviorCS, "behavior", &bSeg, func(i int) []float64 { return again(&bSeg, i).bvec }); err != nil {
			return err
		}
		if err := l.adoptDiskIndex(l.weightCS, "weights", &wSeg, func(i int) []float64 { return again(&wSeg, i).wvec }); err != nil {
			return err
		}
	}
	return nil
}

// diskSpace is what rehydrate keeps of one content space of a disk-resident
// lake instead of its vectors: the ids in segment-row order, which record
// each row came from, and the checksums a segment of exactly these rows
// carries.
type diskSpace struct {
	ids  []string
	recs []int // index into the rehydrated record list
	sum  index.SegmentChecksum
}

func (d *diskSpace) add(rec int, id string, vec tensor.Vector) {
	d.ids = append(d.ids, id)
	d.recs = append(d.recs, rec)
	d.sum.Add(id, vec)
}

// adoptDiskIndex points a content searcher at the on-disk vector segment for
// its space. A segment left by a previous run is reused only when its stored
// checksums and row count prove it holds exactly the rehydrated vectors —
// anything else (torn write, stale contents, changed embedding config) is
// discarded and rebuilt, so a corrupt segment can never be served. Only the
// rebuild needs the vectors again: row(i) re-reads segment row i's, from the
// durable vec record, as the build streams the rows out in order. Spaces
// with no vectors adopt an empty segment: post-open ingests then land in the
// segment's bounded, self-spilling in-RAM tail rather than a pure in-RAM
// index.
func (l *Lake) adoptDiskIndex(cs *search.ContentSearcher, space string, want *diskSpace, row func(i int) []float64) error {
	path := filepath.Join(l.cfg.Dir, "vectors", space+".seg")
	wantIDs, wantData := want.sum.Sums()
	if df, err := index.OpenDiskFlat(path, l.cfg.FS, index.Cosine, l.quantConfig()); err == nil {
		gotIDs, gotData := df.Checksums()
		if df.SegmentLen() == len(want.ids) && gotIDs == wantIDs && gotData == wantData {
			cs.AdoptIndex(df, want.ids)
			return nil
		}
		df.Close()
	}
	df, err := index.BuildDiskFlat(path, l.cfg.FS, index.Cosine, l.quantConfig(), want.ids, row)
	if err != nil {
		return fmt.Errorf("lake: build %s vector segment: %w", space, err)
	}
	cs.AdoptIndex(df, want.ids)
	return nil
}

// Reasons hydrateOne fell back to decode-and-embed, as the reason label of
// lake_vec_record_fallbacks_total.
const (
	vecMissing   = "missing"
	vecNamespace = "namespace"
	vecCorrupt   = "corrupt"
)

// storedVecs reads a model's vectors from its vec/<id> record. A non-empty
// miss says why there are none to use: no record, a record written under
// other embedding parameters, or a record that fails its checksum (the
// store's ErrCorrupt for a bit-rotted value) or does not decode — with err
// saying what was wrong with it.
func (l *Lake) storedVecs(id string) (bvec, wvec tensor.Vector, miss string, err error) {
	b, err := l.kv.Get(vecKey(id))
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, nil, vecMissing, nil
	}
	var ns string
	var vecs []spaceVec
	if err == nil {
		ns, vecs, err = decodeVecRecord(b)
	}
	if err != nil {
		return nil, nil, vecCorrupt, err
	}
	if ns == l.vecNS {
		for _, sv := range vecs {
			switch sv.Space {
			case l.behaviorCS.EmbedderName():
				bvec = sv.Vec
			case l.weightCS.EmbedderName():
				wvec = sv.Vec
			}
		}
	}
	if bvec == nil && wvec == nil {
		return nil, nil, vecNamespace, nil
	}
	return bvec, wvec, "", nil
}

// hydrateOne performs the parallelizable part of rehydrating one record.
// known, when non-nil, is a point-in-time snapshot of the blob store's
// contents used to answer existence checks without touching the filesystem.
func (l *Lake) hydrateOne(rec *registry.Record, known map[blob.ID]struct{}) hydrated {
	if rec.Weights == "" {
		return hydrated{} // closed-weights model: behaviour is gone across restarts
	}
	bvec, wvec, miss, missErr := l.storedVecs(rec.ID)
	if miss == "" {
		// A registered blob that vanished — the crash-consistency
		// hazard a reopen must catch — fails Open loudly. Content
		// verification is deferred to the first read unless
		// VerifyBlobsOnOpen asks for the full integrity sweep:
		// blob writes are atomic (temp + rename), so a present
		// blob was written whole, and every Get checksum-verifies
		// before returning. Skipping the full read keeps fast
		// Open O(records), not O(weight bytes).
		if l.cfg.VerifyBlobsOnOpen {
			if _, err := l.blobs.Get(rec.Weights); err != nil {
				return hydrated{err: fmt.Errorf("lake: rehydrate %s: %w", rec.ID, err)}
			}
		} else {
			exists := false
			if known != nil {
				_, exists = known[rec.Weights]
			} else {
				exists = l.blobs.Has(rec.Weights)
			}
			if !exists {
				return hydrated{err: fmt.Errorf("lake: rehydrate %s: %w: %s",
					rec.ID, blob.ErrNotFound, rec.Weights)}
			}
		}
		return hydrated{bvec: bvec, wvec: wvec}
	}
	// Fallback (pre-vec lakes, changed embedding config, damaged record):
	// read + verify the blob, decode the model, and embed it the way ingest
	// does.
	raw, err := l.blobs.Get(rec.Weights)
	if err != nil {
		return hydrated{err: fmt.Errorf("lake: rehydrate %s: %w", rec.ID, err)}
	}
	net, err := nn.DecodeMLP(raw)
	if err != nil {
		return hydrated{err: fmt.Errorf("lake: rehydrate %s: decode weights: %w", rec.ID, err)}
	}
	e := l.embedItem(&model.Model{ID: rec.ID, Name: rec.Name, Net: net, Hist: rec.Hist})
	return hydrated{bvec: e.bvec, wvec: e.wvec, miss: miss, missErr: missErr}
}

// runParallel runs fn(0..n-1) across a bounded worker pool. parallelism <= 0
// means GOMAXPROCS; fn must synchronize any shared state itself.
func runParallel(n, parallelism int, fn func(int)) {
	if n == 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ensureTaskRoster materializes the task-search roster deferred by a fast
// rehydrate: model handles load on first task search instead of on every
// reopen. Models that fail to load (e.g. deleted since) are skipped, which
// matches the eager path's "nothing content-indexable survives" policy.
// taskReady flips only once the queue is seen empty, so a caller arriving
// mid-drain waits on rosterMu instead of searching a partial roster.
func (l *Lake) ensureTaskRoster() {
	l.mu.RLock()
	ready := l.taskReady
	l.mu.RUnlock()
	if ready {
		return
	}
	l.rosterMu.Lock()
	defer l.rosterMu.Unlock()
	for {
		l.mu.Lock()
		pending := l.taskPending
		l.taskPending = nil
		if len(pending) == 0 {
			l.taskReady = true
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		for _, id := range pending {
			h, err := l.Model(id)
			if err != nil {
				continue
			}
			l.taskSearch.Add(h)
		}
	}
}

// ensureKeyword materializes the keyword index deferred by rehydrate: cards
// load on the first keyword search instead of on every reopen, in parallel,
// and go to the index as one bulk load that builds each shard's compact
// segment directly. kwReady flips only after the load, so a caller arriving
// mid-drain waits on kwMu instead of searching a partial index. A PutCard
// racing the drain is safe either way round: the drain reads the registry's
// current (already updated) card, BulkLoad leaves a document some Add
// already indexed alone, and an Add after the load replaces as usual.
func (l *Lake) ensureKeyword() {
	l.mu.RLock()
	ready := l.kwReady
	l.mu.RUnlock()
	if ready {
		return
	}
	l.kwMu.Lock()
	defer l.kwMu.Unlock()
	l.mu.Lock()
	pending := l.kwPending
	l.kwPending = nil
	l.mu.Unlock()
	if len(pending) > 0 {
		start := time.Now()
		docs := make([]search.Doc, len(pending))
		runParallel(len(pending), l.cfg.IngestParallelism, func(i int) {
			if c, err := l.reg.Card(pending[i]); err == nil {
				docs[i] = search.Doc{ID: pending[i], Text: c.Text()}
			}
		})
		carded := docs[:0]
		for _, d := range docs {
			if d.ID != "" {
				carded = append(carded, d)
			}
		}
		l.keyword.BulkLoad(carded, l.cfg.IngestParallelism)
		mKwDrainDur.Since(start)
	}
	l.mu.Lock()
	l.kwReady = true
	l.mu.Unlock()
}

// taskSearchAdd routes a freshly ingested behaviour-indexed model into the
// task roster: directly when the roster is live, or onto the pending queue
// when rehydration deferred it (keeping roster order = ingest order).
func (l *Lake) taskSearchAdd(m *model.Model) {
	l.mu.Lock()
	if !l.taskReady {
		l.taskPending = append(l.taskPending, m.ID)
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	l.taskSearch.Add(model.NewHandle(m))
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

// embedded holds the ID-independent per-model work a batch ingest can do
// concurrently before any durable state is touched: the content-space
// embeddings.
type embedded struct {
	bvec, wvec tensor.Vector
}

// preparedIngest is one model's fully staged ingest: registry ops, the
// vec-record and provenance ops that commit atomically with them, and the
// in-memory bookkeeping inputs for after the batch lands.
type preparedIngest struct {
	pend  *registry.Pending
	extra []kvstore.Op // vec record + provenance, same atomic batch
	bvec  tensor.Vector
	wvec  tensor.Vector
	m     *model.Model
	c     *card.Card
}

// embedItem computes a model's content-space vectors. They are independent
// of the (not yet assigned) model ID, which is what lets batch ingest run
// this stage on a worker pool.
func (l *Lake) embedItem(m *model.Model) embedded {
	var e embedded
	if m == nil {
		return e
	}
	h := model.NewHandle(m)
	if v, err := embed(l.behaviorCS, h); err == nil {
		e.bvec = v
	}
	if v, err := embed(l.weightCS, h); err == nil {
		e.wvec = v
	}
	return e
}

// prepareIngest stages one model for commit: registry Prepare (ID + seq
// assignment, record/card/name ops), the persisted-vector record, and the
// provenance journal entries. pending carries provenance entity IDs staged
// earlier in the same batch, so in-batch derivations relate exactly like a
// serial ingest loop would. Nothing durable happens here beyond sequence
// leases; the caller owns blob writes and the atomic Apply.
func (l *Lake) prepareIngest(m *model.Model, c *card.Card, opts registry.RegisterOptions, e embedded, pending map[string]bool) (*preparedIngest, error) {
	pend, err := l.reg.Prepare(m, c, opts)
	if err != nil {
		return nil, err
	}
	p := &preparedIngest{pend: pend, bvec: e.bvec, wvec: e.wvec, m: m, c: c}
	if pend.Rec.Weights != "" && (e.bvec != nil || e.wvec != nil) {
		// Persist the vectors for open-weights models only: closed-weights
		// behaviour intentionally does not survive restarts.
		var vecs []spaceVec
		if e.bvec != nil {
			vecs = append(vecs, spaceVec{Space: l.behaviorCS.EmbedderName(), Vec: e.bvec})
		}
		if e.wvec != nil {
			vecs = append(vecs, spaceVec{Space: l.weightCS.EmbedderName(), Vec: e.wvec})
		}
		p.extra = append(p.extra, kvstore.Op{Key: vecKey(pend.Rec.ID), Value: encodeVecRecord(l.vecNS, vecs)})
	}
	provOps, err := l.provenanceOps(pend.Rec, m, pending)
	if err != nil {
		return nil, err
	}
	p.extra = append(p.extra, provOps...)
	return p, nil
}

// commitIngest applies the in-memory effects of a landed ingest batch entry,
// in the same order the old serial path did. The caller invalidates the
// query cache (once per batch, not per model).
func (l *Lake) commitIngest(p *preparedIngest) {
	rec := p.pend.Rec
	p.m.ID = rec.ID
	l.mu.Lock()
	l.modelCache[rec.ID] = p.m
	l.graph = nil // new model invalidates the cached version graph
	l.mu.Unlock()
	if p.c != nil {
		cc := p.c.Clone()
		cc.ModelID = rec.ID
		// A freshly minted ID is never segment-resident, so Add cannot
		// need the (fallible) demote path.
		_ = l.keyword.Add(rec.ID, cc.Text())
	}
	if p.bvec != nil {
		if err := l.behaviorCS.AddVector(rec.ID, p.bvec); err == nil {
			l.taskSearchAdd(p.m)
		}
	}
	if p.wvec != nil {
		_ = l.weightCS.AddVector(rec.ID, p.wvec)
	}
}

// Ingest registers a model with its card, indexes it for every search
// modality, and journals its provenance. The registry record, name mapping,
// card, persisted index vectors, and provenance entries commit in ONE atomic
// kvstore batch: a crash anywhere leaves either the whole model or none of
// it, never a half-registered ghost. It returns the registry record.
func (l *Lake) Ingest(m *model.Model, c *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	start := time.Now()
	defer mIngestDur.Since(start)
	mIngests.Inc()
	p, err := l.prepareIngest(m, c, opts, l.embedItem(m), map[string]bool{})
	if err != nil {
		return nil, err
	}
	if p.pend.EncodedWeights != nil {
		if _, err := l.blobs.Put(p.pend.EncodedWeights); err != nil {
			return nil, fmt.Errorf("registry: store weights: %w", err)
		}
	}
	if err := l.kv.Apply(append(p.pend.Ops, p.extra...)); err != nil {
		return nil, err
	}
	l.commitIngest(p)
	l.qcache.invalidate() // new vectors can change any content-search answer
	return p.pend.Rec, nil
}

// IngestContext is Ingest with a context boundary check: a request whose
// caller has already gone away (canceled, deadline expired) is refused
// before any durable work starts, instead of committing a write nobody will
// see acknowledged. The ingest itself is not interruptible mid-commit — an
// atomic batch either fully lands or doesn't — so the check is at the
// boundary, mirroring the cluster write path.
func (l *Lake) IngestContext(ctx context.Context, m *model.Model, c *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Ingest(m, c, opts)
}

// provenanceOps builds the journal writes for a model's provenance — the
// model entity, its creating activity, and declared inputs — without
// committing them, so they ride in the registration's atomic batch. pending
// vouches for entity IDs staged earlier in the same batch.
func (l *Lake) provenanceOps(rec *registry.Record, m *model.Model, pending map[string]bool) ([]kvstore.Op, error) {
	var ops []kvstore.Op
	put := func(id string, kind provenance.Kind, label string, attrs map[string]string) error {
		_, op, err := l.prov.PutOps(id, kind, label, attrs)
		if err != nil {
			return fmt.Errorf("lake: provenance: %w", err)
		}
		ops = append(ops, op)
		pending[id] = true
		return nil
	}
	relate := func(typ provenance.RelationType, subject, object string) error {
		op, err := l.prov.RelateOps(typ, subject, object, func(id string) bool { return pending[id] })
		if err != nil {
			return err
		}
		ops = append(ops, op)
		return nil
	}
	ent := "model:" + rec.ID
	if err := put(ent, provenance.Entity, rec.Name, map[string]string{
		"arch": rec.Arch, "version": rec.Version,
	}); err != nil {
		return nil, err
	}
	if m.Hist != nil {
		act := "activity:" + rec.ID + "/" + m.Hist.Transformation
		if err := put(act, provenance.Activity, m.Hist.Transformation, nil); err != nil {
			return nil, err
		}
		if err := relate(provenance.WasGeneratedBy, ent, act); err != nil {
			return nil, err
		}
		if m.Hist.DatasetID != "" {
			dsEnt := "dataset:" + m.Hist.DatasetID
			if err := put(dsEnt, provenance.Entity, m.Hist.DatasetID, nil); err != nil {
				return nil, err
			}
			if err := relate(provenance.Used, act, dsEnt); err != nil {
				return nil, err
			}
		}
		for _, base := range m.Hist.BaseModelIDs {
			baseEnt := "model:" + base
			if l.kv.Has("prov/rec/"+baseEnt) || pending[baseEnt] {
				if err := relate(provenance.WasDerivedFrom, ent, baseEnt); err != nil {
					return nil, err
				}
			}
		}
	}
	return ops, nil
}

// IngestItem is one model in a batch ingest.
type IngestItem struct {
	Model *model.Model
	Card  *card.Card
	Opts  registry.RegisterOptions
}

// Batch-ingest chunking: each chunk of staged models commits as one atomic
// multi-record kvstore batch (one fsync under Sync). Bounds keep a chunk
// comfortably under the store's record-size ceiling while amortizing the
// commit cost across many models.
const (
	ingestChunkModels = 128
	ingestChunkBytes  = 4 << 20
)

// IngestAll is the batch form of Ingest, rebuilt around the write path's
// batch primitives: models are embedded concurrently (stage 1), staged
// serially in input order so IDs and sequence numbers match a serial Ingest
// loop exactly (stage 2), their weights land with coalesced shard-directory
// fsyncs (stage 3), and registration + card + persisted vectors + provenance
// commit in chunked atomic kvstore batches before the in-memory indexes
// update in input order (stage 4). Each chunk is all-or-nothing; the
// returned slices are aligned with items and a nil error means that model
// was fully ingested. parallelism <= 0 uses the lake's configured
// IngestParallelism (and GOMAXPROCS when that is unset too).
func (l *Lake) IngestAll(items []IngestItem, parallelism int) ([]*registry.Record, []error) {
	start := time.Now()
	defer mIngestDur.Since(start)
	mIngests.Add(uint64(len(items)))
	recs := make([]*registry.Record, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return recs, errs
	}
	if parallelism <= 0 {
		parallelism = l.cfg.IngestParallelism
	}

	// Stage 1: embeddings, concurrently — none of it needs
	// the model IDs assigned in stage 2.
	emb := make([]embedded, len(items))
	runParallel(len(items), parallelism, func(i int) {
		emb[i] = l.embedItem(items[i].Model)
	})

	// Stage 2: stage registrations serially in input order. The registry's
	// durable duplicate check cannot see uncommitted batch entries, so
	// in-batch name@version collisions are caught here.
	pres := make([]*preparedIngest, len(items))
	seen := map[string]bool{}
	pendingProv := map[string]bool{}
	var weights [][]byte
	for i, it := range items {
		if it.Model != nil {
			name := it.Opts.Name
			if name == "" {
				name = it.Model.Name
			}
			ver := it.Opts.Version
			if ver == "" {
				ver = "1"
			}
			nv := name + "@" + ver
			if name != "" && seen[nv] {
				errs[i] = fmt.Errorf("%w: %s", registry.ErrDuplicate, nv)
				continue
			}
			seen[nv] = true
		}
		p, err := l.prepareIngest(it.Model, it.Card, it.Opts, emb[i], pendingProv)
		if err != nil {
			errs[i] = err
			continue
		}
		pres[i] = p
		if p.pend.EncodedWeights != nil {
			weights = append(weights, p.pend.EncodedWeights)
		}
	}

	// Stage 3: all weights blobs in one batch write — per-blob atomic, but
	// the shard-directory fsyncs coalesce across the batch.
	if len(weights) > 0 {
		if _, err := l.blobs.PutAll(weights); err != nil {
			for i := range pres {
				if pres[i] != nil {
					errs[i] = fmt.Errorf("registry: store weights: %w", err)
					pres[i] = nil
				}
			}
			return recs, errs
		}
	}

	// Stage 4: chunked atomic commits, then in-memory bookkeeping in input
	// order (so the indexes are identical to a serial Ingest loop).
	flush := func(chunk []int, ops []kvstore.Op) {
		if len(chunk) == 0 {
			return
		}
		if err := l.kv.Apply(ops); err != nil {
			for _, i := range chunk {
				errs[i] = err
			}
			return
		}
		for _, i := range chunk {
			l.commitIngest(pres[i])
			recs[i] = pres[i].pend.Rec
		}
	}
	var chunk []int
	var ops []kvstore.Op
	var opBytes int
	for i := range pres {
		if pres[i] == nil {
			continue
		}
		itemOps := append(append([]kvstore.Op(nil), pres[i].pend.Ops...), pres[i].extra...)
		sz := 0
		for _, op := range itemOps {
			sz += len(op.Key) + len(op.Value)
		}
		if len(chunk) > 0 && (len(chunk) >= ingestChunkModels || opBytes+sz > ingestChunkBytes) {
			flush(chunk, ops)
			chunk, ops, opBytes = nil, nil, 0
		}
		chunk = append(chunk, i)
		ops = append(ops, itemOps...)
		opBytes += sz
	}
	flush(chunk, ops)
	l.qcache.invalidate()
	return recs, errs
}

// IngestAllContext is IngestAll with the same boundary context check as
// IngestContext: a dead context fails every item up front with the context
// error rather than committing a batch for a caller that has gone away.
func (l *Lake) IngestAllContext(ctx context.Context, items []IngestItem, parallelism int) ([]*registry.Record, []error) {
	if err := ctx.Err(); err != nil {
		recs := make([]*registry.Record, len(items))
		errs := make([]error, len(items))
		for i := range errs {
			errs[i] = err
		}
		return recs, errs
	}
	return l.IngestAll(items, parallelism)
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
	if err := l.keyword.Add(id, c.Text()); err != nil {
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

// Score runs (or fetches the cached score of) a model on a benchmark.
func (l *Lake) Score(modelID, benchID string) (float64, error) {
	l.mu.RLock()
	b, ok := l.benchmarks[benchID]
	l.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("lake: unknown benchmark %q", benchID)
	}
	h, err := l.Model(modelID)
	if err != nil {
		return 0, err
	}
	return l.runner.Score(h, b)
}

// SearchKeyword is metadata search over cards (the status-quo baseline).
func (l *Lake) SearchKeyword(query string, k int) []search.Hit {
	hits, _ := l.SearchKeywordContext(context.Background(), query, k)
	return hits
}

// SearchKeywordContext is SearchKeyword honoring a request context, so a
// timed-out request is refused instead of burning index time on an answer
// nobody is waiting for.
func (l *Lake) SearchKeywordContext(ctx context.Context, query string, k int) ([]search.Hit, error) {
	defer mSearchDurs("keyword").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.ensureKeyword()
	return l.keyword.Search(query, k)
}

// contentSearcher maps an embedding-space name to its searcher.
func (l *Lake) contentSearcher(space string) (*search.ContentSearcher, error) {
	switch space {
	case "", "behavior":
		return l.behaviorCS, nil
	case "weights":
		return l.weightCS, nil
	}
	return nil, fmt.Errorf("lake: unknown embedding space %q", space)
}

// embed runs cs's embedder on h, counted as embed demand that had to be
// computed.
func embed(cs *search.ContentSearcher, h *model.Handle) (tensor.Vector, error) {
	mEmbedMisses.Inc()
	return cs.EmbedQuery(h)
}

// queryVector is the query vector of lake model id in space: the
// full-precision row the index stores under id — what the embedder returned
// at ingest and what every distance to id is computed against — so a related
// query loads no weights and embeds nothing. Only when the space does not
// index id (closed weights after a restart, a shape the probe space rejects,
// a follower that skipped a foreign-namespace vec record) is the model loaded
// and embedded, which yields the vector or the reason there is none.
func (l *Lake) queryVector(id, space string) (tensor.Vector, error) {
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	v, ok, err := cs.Vector(id)
	if err != nil {
		return nil, err
	}
	if ok {
		mEmbedHits.Inc()
		return v, nil
	}
	h, err := l.Model(id)
	if err != nil {
		return nil, err
	}
	return embed(cs, h)
}

// searchAround ranks the lake by proximity to v and drops selfID — the half
// of a model-as-query search after the query vector is known. The cluster
// runs the same two steps with a merge across shards between them.
func (l *Lake) searchAround(ctx context.Context, space string, v tensor.Vector, selfID string, k int) ([]search.Hit, error) {
	raw, err := l.SearchByVectorSpace(ctx, space, v, k+1)
	if err != nil {
		return nil, err
	}
	return search.ExcludeSelf(raw, selfID, k), nil
}

// SearchByModel is model-as-query related-model search in the given space
// ("behavior", the default, or "weights").
func (l *Lake) SearchByModel(id, space string, k int) ([]search.Hit, error) {
	return l.SearchByModelContext(context.Background(), id, space, k)
}

// SearchByModelContext is SearchByModel honoring a request context.
func (l *Lake) SearchByModelContext(ctx context.Context, id, space string, k int) ([]search.Hit, error) {
	defer mSearchDurs("model").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := l.queryVector(id, space)
	if err != nil {
		return nil, err
	}
	return l.searchAround(ctx, space, v, id, k)
}

// SearchByHandle is model-as-query search with an external query model (one
// that is not necessarily in the lake), e.g. "find models like this one I
// built locally".
func (l *Lake) SearchByHandle(h *model.Handle, space string, k int) ([]search.Hit, error) {
	return l.SearchByHandleContext(context.Background(), h, space, k)
}

// SearchByHandleContext is SearchByHandle honoring a request context.
func (l *Lake) SearchByHandleContext(ctx context.Context, h *model.Handle, space string, k int) ([]search.Hit, error) {
	defer mSearchDurs("model").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	v, err := embed(cs, h)
	if err != nil {
		return nil, err
	}
	return l.searchAround(ctx, space, v, h.ID(), k)
}

// SearchByModelMany answers a batch of model-as-query searches in one call,
// fanning the per-query work (embed, cache lookup, index scan) across a
// bounded worker pool. Hits and errors are aligned with ids; one model's
// failure does not abort the batch. parallelism <= 0 means GOMAXPROCS.
// Every answer is identical to a serial SearchByModelContext call.
func (l *Lake) SearchByModelMany(ctx context.Context, ids []string, space string, k, parallelism int) ([][]search.Hit, []error) {
	hits := make([][]search.Hit, len(ids))
	errs := make([]error, len(ids))
	runParallel(len(ids), parallelism, func(i int) {
		hits[i], errs[i] = l.SearchByModelContext(ctx, ids[i], space, k)
	})
	return hits, errs
}

// QueryCacheStats reports query-result-cache hits and misses since the lake
// was opened (zeros when the cache is disabled).
func (l *Lake) QueryCacheStats() (hits, misses uint64) {
	return l.qcache.stats()
}

// SearchTask ranks models by behavioural fit to labeled task examples. The
// first task search after a reopen materializes the deferred roster (see
// ensureTaskRoster); answers are identical to an eagerly built roster
// because task ranking sorts by score with ID tie-breaks, independent of
// roster order.
func (l *Lake) SearchTask(examples []search.TaskExample, k int) ([]search.Hit, error) {
	defer mSearchDurs("task").Since(time.Now())
	l.ensureTaskRoster()
	return l.taskSearch.Search(examples, k)
}

// SearchHybrid fuses keyword and behavioural rankings with reciprocal-rank
// fusion: text finds documented models, behaviour finds similar ones.
func (l *Lake) SearchHybrid(query string, queryModelID string, k int) ([]search.Hit, error) {
	defer mSearchDurs("hybrid").Since(time.Now())
	var rankings [][]search.Hit
	if query != "" {
		l.ensureKeyword()
		kw, err := l.keyword.Search(query, k*4)
		if err != nil {
			return nil, err
		}
		rankings = append(rankings, kw)
	}
	if queryModelID != "" {
		content, err := l.SearchByModel(queryModelID, "behavior", k*4)
		if err != nil {
			return nil, err
		}
		rankings = append(rankings, content)
	}
	if len(rankings) == 0 {
		return nil, fmt.Errorf("lake: hybrid search needs a text query or a query model")
	}
	fused := search.FuseRRF(0, rankings...)
	if k < len(fused) {
		fused = fused[:k]
	}
	return fused, nil
}

// VersionGraph reconstructs (and caches) the directed Model Graph over every
// open-weights model in the lake.
func (l *Lake) VersionGraph() (*version.Graph, error) {
	return l.VersionGraphContext(context.Background())
}

// VersionGraphContext is VersionGraph honoring a request context: the
// reconstruction is abandoned between models if ctx is canceled, so a slow
// graph build cannot outlive its HTTP request.
func (l *Lake) VersionGraphContext(ctx context.Context) (*version.Graph, error) {
	l.mu.RLock()
	if l.graph != nil {
		g := l.graph
		l.mu.RUnlock()
		return g, nil
	}
	l.mu.RUnlock()

	recs, err := l.reg.List()
	if err != nil {
		return nil, err
	}
	var nodes []version.Node
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, err := l.Model(rec.ID)
		if err != nil {
			continue
		}
		net, err := h.Network()
		if err != nil {
			continue
		}
		nodes = append(nodes, version.Node{ID: rec.ID, Net: net})
	}
	if len(nodes) == 0 {
		return &version.Graph{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := version.Reconstruct(nodes, version.Config{ClassifyEdges: true, Seed: l.cfg.Seed})
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.graph = g
	l.mu.Unlock()
	return g, nil
}

// Attribute computes gradient-influence attribution of the model's behaviour
// at (x, y) over the given training dataset.
func (l *Lake) Attribute(modelID string, train *data.Dataset, x tensor.Vector, y int) ([]float64, error) {
	h, err := l.Model(modelID)
	if err != nil {
		return nil, err
	}
	net, err := h.Network()
	if err != nil {
		return nil, fmt.Errorf("lake: attribution needs intrinsics: %w", err)
	}
	return attribution.GradientInfluence(net, train, x, y)
}

// GenerateCard drafts documentation for a model from lake analyses.
func (l *Lake) GenerateCard(modelID string) (*docgen.Draft, error) {
	return l.GenerateCardContext(context.Background(), modelID)
}

// GenerateCardContext is GenerateCard honoring a request context.
func (l *Lake) GenerateCardContext(ctx context.Context, modelID string) (*docgen.Draft, error) {
	h, err := l.Model(modelID)
	if err != nil {
		return nil, err
	}
	existing, err := l.Card(modelID)
	if err != nil && !errors.Is(err, registry.ErrNotFound) {
		return nil, err
	}
	g, err := l.VersionGraphContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gen := &docgen.Generator{
		Peers:      l.peers(),
		Graph:      g,
		Runner:     l.runner,
		Benchmarks: l.Benchmarks(),
		Behavior:   embedding.NewBehaviorEmbedder(l.cfg.InputDim, l.cfg.Probes, l.cfg.MaxClasses, l.cfg.Seed),
		ProbeSeed:  l.cfg.Seed + 2,
	}
	return gen.Draft(h, existing)
}

func (l *Lake) peers() []docgen.Peer {
	recs, _ := l.reg.List()
	var out []docgen.Peer
	for _, rec := range recs {
		h, err := l.Model(rec.ID)
		if err != nil {
			continue
		}
		c, err := l.Card(rec.ID)
		if err != nil {
			c = nil
		}
		out = append(out, docgen.Peer{Handle: h, Card: c})
	}
	return out
}

// Audit runs the compliance audit for a model. flagged maps known-risky
// model IDs to reasons; risk propagates over the *recovered* version graph.
func (l *Lake) Audit(modelID string, flagged map[string]string) (*audit.Report, error) {
	return l.AuditContext(context.Background(), modelID, flagged)
}

// AuditContext is Audit honoring a request context.
func (l *Lake) AuditContext(ctx context.Context, modelID string, flagged map[string]string) (*audit.Report, error) {
	c, err := l.Card(modelID)
	if err != nil {
		c = nil
	}
	g, err := l.VersionGraphContext(ctx)
	if err != nil {
		return nil, err
	}
	var docFlags []string
	if draft, err := l.GenerateCardContext(ctx, modelID); err == nil {
		docFlags = draft.Flags
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Behavioural verification of the declared training data, when the
	// claimed dataset is registered with the lake.
	var claim audit.ClaimCheck
	if c != nil && c.TrainingData != "" {
		l.mu.RLock()
		ds := l.datasets[c.TrainingData]
		l.mu.RUnlock()
		if ds != nil {
			if h, err := l.Model(modelID); err == nil {
				if verdict, acc, err := docgen.VerifyTrainingClaim(h, ds); err == nil {
					claim = audit.ClaimCheck{Claim: c.TrainingData, Verdict: string(verdict), Evidence: acc}
				}
			}
		}
	}
	return audit.Run(audit.Input{
		ModelID:       modelID,
		Card:          c,
		Graph:         g,
		Flagged:       flagged,
		MembershipAUC: -1,
		DocFlags:      docFlags,
		TrainingClaim: claim,
	}), nil
}

// Cite produces a version-graph-anchored citation for a model.
func (l *Lake) Cite(modelID string) (provenance.Citation, error) {
	rec, err := l.reg.Get(modelID)
	if err != nil {
		return provenance.Citation{}, err
	}
	g, err := l.VersionGraph()
	if err != nil {
		return provenance.Citation{}, err
	}
	return provenance.Cite(rec.ID, rec.Name, rec.Version, g, rec.Seq), nil
}

// Provenance exposes the journal for why/where queries.
func (l *Lake) Provenance() *provenance.Journal { return l.prov }

// Query parses and executes an MLQL query against the lake.
func (l *Lake) Query(q string) (*mlql.Result, error) {
	return l.QueryContext(context.Background(), q)
}

// QueryContext is Query honoring a request context: the executor checks the
// context between candidate-filtering stages, so a canceled or timed-out
// request abandons the query promptly.
func (l *Lake) QueryContext(ctx context.Context, q string) (*mlql.Result, error) {
	defer mQueryDur.Since(time.Now())
	return mlql.RunContext(ctx, q, (*catalog)(l))
}

// Explain parses a query and renders its evaluation plan without running it.
func (l *Lake) Explain(q string) (string, error) {
	parsed, err := mlql.Parse(q)
	if err != nil {
		return "", err
	}
	return mlql.Explain(parsed), nil
}

// Compact rewrites the metadata log to contain only live records — useful
// after heavy card churn or score-cache turnover on a long-lived lake.
func (l *Lake) Compact() error { return l.kv.Compact() }
