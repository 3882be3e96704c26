package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"modellake/internal/index"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/registry"
)

// E16 benchmarks the atlas-scale read path (DESIGN.md §12, §14): the int8
// quantized tier with exact rescore, the product-quantized ADC tier, the
// disk-resident flat segment, and streaming lake generation. Part A sweeps
// index scale — exact flat scan vs int8 two-phase scan vs PQ ADC scan vs
// disk-resident segment at 10k and 100k vectors — verifying on every point
// that the approximate paths return bitwise-identical top-k to the exact
// scan, reporting each arm's resident ranking-tier bytes (the number the
// "1M models in one box" claim rests on), and timing segment Open. Part B
// generates a large lake with lakegen.Stream, ingests it chunk by chunk
// into a PQ disk-resident lake, and reports ingest throughput, the
// peak-heap proxy for resident memory (the point of streaming: the whole
// population is never live at once), reopen latency, and query QPS against
// the reopened lake.

// pqBenchRescoreFactor is the shortlist over-fetch the PQ arm runs with.
// Eight-byte codes are far coarser than the int8 tier's per-component
// codes, so PQ buys back its exactness with a deeper shortlist: at 100k
// uniform Gaussian vectors (the hardest case for PQ — no cluster structure
// for the codebooks to exploit) factor 128 still misses ~1 in 50 sampled
// queries, 192 is the lowest probed factor with zero misses, and 256 runs
// with double that margin while the rescore cost (k·256 of 100k rows)
// stays far below the full-index scan it replaces.
const pqBenchRescoreFactor = 256

// ScalePoint is one (read path, vector count) measurement.
type ScalePoint struct {
	Kind          string  `json:"kind"` // "exact", "quant", "pq", or "disk"
	NVectors      int     `json:"n_vectors"`
	Dim           int     `json:"dim"`
	K             int     `json:"k"`
	Queries       int     `json:"queries"`
	QPS           float64 `json:"qps"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	IdenticalTopK bool    `json:"identical_topk"`            // vs the exact flat scan
	TierBytes     int64   `json:"tier_bytes,omitempty"`      // resident ranking tier (int8 codes or PQ codebook+codes)
	IndexBytes    int64   `json:"index_bytes,omitempty"`     // whole index resident heap estimate
	PeakHeapBytes uint64  `json:"peak_heap_bytes,omitempty"` // max sampled HeapAlloc around this arm's query loop
	OpenNs        int64   `json:"open_ns,omitempty"`         // disk only: segment Open+verify latency
	SegmentBytes  int64   `json:"segment_bytes,omitempty"`   // disk only: on-disk segment size
}

// ScaleStream summarizes the streamed-lake half of the experiment.
type ScaleStream struct {
	Models        int     `json:"models"`
	GenIngestSecs float64 `json:"gen_ingest_seconds"` // Stream + chunked IngestAll, end to end
	ModelsPerSec  float64 `json:"models_per_sec"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"` // max HeapAlloc sampled across the run
	Under2GB      bool    `json:"under_2gb"`
	ReopenNs      int64   `json:"reopen_ns"` // Open on the persisted lake (segment adoption)
	// Max HeapAlloc sampled while that Open ran, from a collected heap: what
	// a restart holds at its worst moment, where the ingest peak above is
	// what a load does.
	ReopenPeakHeapBytes uint64 `json:"reopen_peak_heap_bytes"`
	// Collected-heap growth across the related-query loop: what serving
	// reads leave resident. Bounded by the query cache, not by how many
	// models were queried.
	ServeHeapGrowthBytes int64   `json:"serve_heap_growth_bytes"`
	SearchQPS            float64 `json:"search_qps"`
	KeywordQPS           float64 `json:"keyword_qps"` // card search once the reopen's segments are built

	// Per-tier index heap on the reopened lake, from the lake's own
	// accounting: with disk-resident vectors the vector tier should be
	// small next to the metadata KV map.
	VectorHeapBytes   int64 `json:"vector_heap_bytes"`
	PostingsHeapBytes int64 `json:"postings_heap_bytes"`
	KVHeapBytes       int64 `json:"kv_heap_bytes"`
	// Value bytes the KV reads back from its log by reference (vec records):
	// disk the KVHeapBytes above no longer includes.
	KVReferencedBytes int64 `json:"kv_referenced_bytes"`
}

// ScaleBenchResult is the machine-readable summary cmd/lakebench writes to
// BENCH_scale.json so CI can track atlas-scale behavior over time.
type ScaleBenchResult struct {
	Points []ScalePoint `json:"points"`
	Stream ScaleStream  `json:"stream"`
}

// RunE16 is the experiment-index entry point with the default sweep: index
// scale at 10k and 100k vectors, streamed lake at 100k models.
func RunE16(seed uint64) (*Table, error) {
	t, _, err := RunE16Scale(seed, nil, 0, 0)
	return t, err
}

// RunE16Scale measures the atlas-scale read path at the given vector counts
// with queries queries per point, then streams a streamModels-model lake.
// sizes nil means {10_000, 100_000}; queries <= 0 means 200; streamModels <=
// 0 means 100_000.
func RunE16Scale(seed uint64, sizes []int, queries, streamModels int) (*Table, *ScaleBenchResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000}
	}
	if queries <= 0 {
		queries = 200
	}
	if streamModels <= 0 {
		streamModels = 100_000
	}
	const dim, k = 32, 10
	t := &Table{
		ID:    "E16",
		Title: "atlas scale: quantized rescore, disk-resident vectors, streamed lakes",
		Columns: []string{"path", "vectors", "qps", "p50", "p99", "allocs/op",
			"identical top-k", "tier", "open"},
		Notes: "quant, pq, and disk rows are verified bitwise-identical to the exact flat scan; tier is the resident ranking-tier heap (int8 codes or PQ codebook+codes); stream row generates the lake incrementally into a PQ disk-resident lake and reports peak heap instead of top-k identity",
	}
	res := &ScaleBenchResult{}

	for _, n := range sizes {
		pts, err := measureScalePoint(seed, n, dim, k, queries)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			res.Points = append(res.Points, p)
			open := "-"
			if p.OpenNs > 0 {
				open = time.Duration(p.OpenNs).Round(time.Microsecond).String()
			}
			tier := "-"
			if p.TierBytes > 0 {
				tier = fmt.Sprintf("%.2f MiB", float64(p.TierBytes)/(1<<20))
			}
			t.AddRow(p.Kind, fmt.Sprint(p.NVectors), f2(p.QPS),
				time.Duration(p.P50Ns).Round(time.Microsecond).String(),
				time.Duration(p.P99Ns).Round(time.Microsecond).String(),
				f2(p.AllocsPerOp), fmt.Sprint(p.IdenticalTopK), tier, open)
		}
	}

	stream, err := measureStreamedLake(seed, streamModels)
	if err != nil {
		return nil, nil, err
	}
	res.Stream = stream
	const mib = 1 << 20
	t.AddRow("stream+disk", fmt.Sprint(stream.Models), f2(stream.SearchQPS), "-", "-", "-",
		fmt.Sprintf("peak heap %.0f MiB (under 2 GiB: %v), %.0f MiB across reopen, %+.2f MiB across the related queries; tiers vec %.1f / postings %.1f / kv %.1f MiB (+ %.1f in the log by reference)",
			float64(stream.PeakHeapBytes)/mib, stream.Under2GB, float64(stream.ReopenPeakHeapBytes)/mib,
			float64(stream.ServeHeapGrowthBytes)/mib,
			float64(stream.VectorHeapBytes)/mib, float64(stream.PostingsHeapBytes)/mib,
			float64(stream.KVHeapBytes)/mib, float64(stream.KVReferencedBytes)/mib),
		fmt.Sprintf("%.1f MiB", float64(stream.VectorHeapBytes)/mib),
		time.Duration(stream.ReopenNs).Round(time.Millisecond).String())
	return t, res, nil
}

// measureScalePoint builds the four read paths over the same n vectors and
// measures each, gating quant, pq, and disk on bitwise identity to the
// exact scan. The PQ arm trains its codebook on the full population (the
// shape a built segment has) and runs the deeper pqBenchRescoreFactor
// shortlist its coarser codes need.
func measureScalePoint(seed uint64, n, dim, k, nq int) ([]ScalePoint, error) {
	vecs := benchVectors(n, dim, seed+uint64(n))
	queries := benchVectors(nq, dim, seed+uint64(n)+1)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%07d", i)
	}

	exact := index.NewFlat(index.Cosine)
	quant := index.NewFlatQuantized(index.Cosine, index.QuantConfig{})
	pq := index.NewFlatPQ(index.Cosine, index.QuantConfig{
		Seed: seed, PQTrainRows: n, RescoreFactor: pqBenchRescoreFactor,
	})
	exact.Reserve(n, dim)
	quant.Reserve(n, dim)
	pq.Reserve(n, dim)
	for i, v := range vecs {
		if err := exact.Add(ids[i], v); err != nil {
			return nil, err
		}
		if err := quant.Add(ids[i], v); err != nil {
			return nil, err
		}
		if err := pq.Add(ids[i], v); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp("", "e16seg")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	segPath := filepath.Join(dir, "bench.seg")
	disk, err := index.BuildDiskFlat(segPath, nil, index.Cosine, index.QuantConfig{},
		ids, func(i int) []float64 { return vecs[i] })
	if err != nil {
		return nil, err
	}
	defer disk.Close()

	// Identity oracle: the exact scan's answers on a sample of the queries.
	ctx := context.Background()
	sample := queries[:min(50, len(queries))]
	oracle := make([][]index.Result, len(sample))
	for i, q := range sample {
		if oracle[i], err = exact.Search(ctx, q, k); err != nil {
			return nil, err
		}
	}
	identical := func(idx index.Index) (bool, error) {
		for i, q := range sample {
			got, err := idx.Search(ctx, q, k)
			if err != nil {
				return false, err
			}
			if !sameResults(got, oracle[i]) {
				return false, nil
			}
		}
		return true, nil
	}

	var out []ScalePoint
	for _, c := range []struct {
		kind string
		idx  index.Index
	}{{"exact", exact}, {"quant", quant}, {"pq", pq}, {"disk", disk}} {
		heapBefore := heapAlloc()
		qp, err := measureIndex(c.kind, c.idx, queries, n, dim, k)
		if err != nil {
			return nil, err
		}
		p := ScalePoint{
			Kind: qp.Kind, NVectors: n, Dim: dim, K: k, Queries: qp.Queries,
			QPS: qp.QPS, P50Ns: qp.P50Ns, P99Ns: qp.P99Ns, AllocsPerOp: qp.AllocsPerOp,
			IdenticalTopK: true,
			PeakHeapBytes: max(heapBefore, heapAlloc()),
		}
		if tiered, ok := c.idx.(interface{ ResidentTierBytes() int64 }); ok {
			p.TierBytes = tiered.ResidentTierBytes()
		}
		if sized, ok := c.idx.(interface{ MemBytes() int64 }); ok {
			p.IndexBytes = sized.MemBytes()
		}
		if c.kind != "exact" {
			if p.IdenticalTopK, err = identical(c.idx); err != nil {
				return nil, err
			}
		}
		if c.kind == "disk" {
			// Reopen latency: one sequential verify pass over the segment,
			// the cost a disk-resident lake pays at Open instead of
			// re-inserting every row.
			if err := disk.Close(); err != nil {
				return nil, err
			}
			openStart := time.Now()
			reopened, err := index.OpenDiskFlat(segPath, nil, index.Cosine, index.QuantConfig{})
			if err != nil {
				return nil, err
			}
			p.OpenNs = time.Since(openStart).Nanoseconds()
			disk = reopened
			if st, err := os.Stat(segPath); err == nil {
				p.SegmentBytes = st.Size()
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// scaleSpec shapes a lakegen spec for bulk generation: tiny models, one
// training epoch, five members per family — cheap enough that 100k models
// generate in minutes while still exercising the full ingest path. The edit
// transform is left out of the mix: on barely trained models its association
// direction can degenerate (every ReLU unit dead for the random probe),
// which would abort a bulk run that only cares about scale.
func scaleSpec(seed uint64, models int) lakegen.Spec {
	const perFamily = 5 // 1 base + 4 children; depth never exhausts eligibility
	bases := (models + perFamily - 1) / perFamily
	return lakegen.Spec{
		Seed: seed, NumBases: bases, ChildrenPerBase: perFamily - 1, MaxDepth: 3,
		Dim: 8, Classes: 3, Hidden: 8, TrainN: 32, Noise: 0.4,
		BaseEpochs: 1, FTEpochs: 1, CardDropProb: 0.2, AnonymousNames: true,
		TransformMix: map[string]float64{
			model.TransformFinetune: 0.55,
			model.TransformLoRA:     0.25,
			model.TransformStitch:   0.2,
		},
	}
}

// measureStreamedLake streams a models-model population straight into a
// product-quantized, disk-resident lake in chunks, so the full population is
// never resident; peak HeapAlloc across the run is the memory proxy. PQ is
// the tier of record here because it is what carries the 1M-models-in-one-
// box bar: 8 bytes of resident ranking state per vector instead of the int8
// tier's dim+20.
func measureStreamedLake(seed uint64, models int) (ScaleStream, error) {
	s := ScaleStream{}
	dir, err := os.MkdirTemp("", "e16lake")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	cfg := lake.Config{Dir: dir, Seed: seed, PQSubspaces: 8, DiskResidentVectors: true}
	lk, err := lake.Open(cfg)
	if err != nil {
		return s, err
	}

	const chunk = 512
	var batch []lake.IngestItem
	var sampleIDs []string
	var peak uint64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		recs, errs := lk.IngestAll(batch, 0)
		batch = batch[:0]
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("e16: ingest: %w", err)
			}
			if len(sampleIDs) < 256 {
				sampleIDs = append(sampleIDs, recs[i].ID)
			}
		}
		peak = max(peak, heapAlloc())
		return nil
	}

	start := time.Now()
	genErr := lakegen.Stream(scaleSpec(seed, models), func(m *lakegen.Member) error {
		batch = append(batch, lake.IngestItem{
			Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"},
		})
		if len(batch) >= chunk {
			return flush()
		}
		return nil
	})
	if genErr == nil {
		genErr = flush()
	}
	if genErr != nil {
		lk.Close()
		return s, genErr
	}
	s.GenIngestSecs = time.Since(start).Seconds()
	s.Models = lk.Count()
	s.ModelsPerSec = float64(s.Models) / s.GenIngestSecs
	s.PeakHeapBytes = peak
	s.Under2GB = peak < 2<<30
	if err := lk.Close(); err != nil {
		return s, err
	}

	// Reopen: rehydrate decodes the persisted vec records and adopts (or
	// rebuilds) the on-disk segments. The closed lake is garbage by now;
	// collect it so the heap sampled across the Open is the Open's own.
	runtime.GC()
	reopenStart := time.Now()
	s.ReopenPeakHeapBytes = peakHeapWhile(func() { lk, err = lake.Open(cfg) })
	if err != nil {
		return s, err
	}
	defer lk.Close()
	s.ReopenNs = time.Since(reopenStart).Nanoseconds()

	ctx := context.Background()
	runtime.GC()
	heapBefore := heapAlloc()
	qStart := time.Now()
	for _, id := range sampleIDs {
		if _, err := lk.SearchByModelContext(ctx, id, "behavior", 10); err != nil {
			return s, err
		}
	}
	if len(sampleIDs) > 0 {
		s.SearchQPS = float64(len(sampleIDs)) / time.Since(qStart).Seconds()
	}
	runtime.GC()
	s.ServeHeapGrowthBytes = int64(heapAlloc()) - int64(heapBefore)

	// Keyword reads, timed after an untimed first one has built the postings
	// segments from the cards, then the tier breakdown of the warm lake.
	kwQueries := keywordQueries(seed, 64)
	if _, err := lk.SearchKeywordContext(ctx, kwQueries[0], 10); err != nil {
		return s, err
	}
	kwStart := time.Now()
	for _, q := range kwQueries {
		if _, err := lk.SearchKeywordContext(ctx, q, 10); err != nil {
			return s, err
		}
	}
	s.KeywordQPS = float64(len(kwQueries)) / time.Since(kwStart).Seconds()
	tiers := lk.TierMemStats()
	s.VectorHeapBytes = tiers.VectorBytes
	s.PostingsHeapBytes = tiers.PostingsBytes
	s.KVHeapBytes = tiers.KVBytes
	s.KVReferencedBytes = tiers.KVReferencedBytes
	return s, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakHeapWhile runs fn and returns the highest HeapAlloc a sampler saw while
// it ran (every 2 ms, plus once at either end).
func peakHeapWhile(fn func()) uint64 {
	peak := heapAlloc()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, heapAlloc())
			case <-stop:
				return
			}
		}
	}()
	fn()
	close(stop)
	<-stopped
	return max(peak, heapAlloc())
}
