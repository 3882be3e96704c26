package lake

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"modellake/internal/benchmark"
	"modellake/internal/blob"
	"modellake/internal/data"
	"modellake/internal/embedding"
	"modellake/internal/index"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

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
	l := &Lake{
		cfg:        cfg,
		kv:         kv,
		blobs:      blobs,
		reg:        registry.New(kv, blobs),
		prov:       provenance.NewJournal(kv),
		runner:     benchmark.NewRunner(scoreKV),
		keyword:    search.NewShardedKeywordIndexConfig(search.KeywordConfig{MergeThreshold: cfg.KeywordMergeThreshold}),
		taskSearch: &search.TaskSearcher{},
		modelCache: map[string]*model.Model{},
		benchmarks: map[string]*benchmark.Benchmark{},
		datasets:   map[string]*data.Dataset{},
	}
	l.apps = NewApplications(l, cfg)
	// The namespace folds in every config knob that changes embedder
	// output, so a lake reopened with different embedding parameters can
	// never read vec records computed under the old ones.
	l.vecNS = fmt.Sprintf("in%d_mc%d_p%d_s%d", cfg.InputDim, cfg.MaxClasses, cfg.Probes, cfg.Seed)
	if !cfg.DisableQueryCache {
		l.qcache = newQueryCache(defaultQueryCacheCap)
	}
	l.behaviorCS = search.NewContentSearcher(
		embedding.NewBehaviorEmbedder(cfg.InputDim, cfg.Probes, cfg.MaxClasses, cfg.Seed),
		l.newIndex())
	l.weightCS = search.NewContentSearcher(
		embedding.NewWeightEmbedder(32, 4, cfg.Seed+1),
		l.newIndex())

	// Rehydrate indexes from a previously persisted lake.
	if err := l.rehydrate(); err != nil {
		l.keyword.Close()
		kv.Close()
		return nil, err
	}
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
		runParallel(len(win), 0, func(i int) {
			res[i] = l.hydrateOne(win[i], known)
		})
		// Commit in record order. Keyword entries (for every carded model,
		// closed-weights included) are deferred to the first keyword
		// search; content vectors insert now, only where a space could
		// embed the model.
		for i, rec := range win {
			h := res[i]
			res[i] = hydrated{}
			l.kwBacklog.push(rec.ID)
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
				l.taskBacklog.push(rec.ID)
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
