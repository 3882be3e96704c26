package index

// The product-quantized (PQ) read tier behind the atlas-scale flat indexes
// (DESIGN.md §14). Where the int8 tier spends one byte per vector component,
// PQ splits each row into m subspaces and encodes every subspace as the
// index of its nearest centroid in a trained 256-entry codebook — one byte
// per subspace, independent of the subspace width. A search precomputes one
// m×256 lookup table of query-to-centroid sub-distances (ADC, asymmetric
// distance computation), ranks every row with a pure gather-accumulate over
// that table, and keeps a k·rescoreFactor shortlist; the caller rescores the
// shortlist against the full-precision rows with the exact distFlat
// arithmetic and the exact (distance, ID) total order, the same two-phase
// discipline as the int8 tier. Codebook training is deterministic seeded
// Lloyd k-means, parallel over subspaces with per-subspace child RNGs, so
// the trained bytes are identical at any worker count.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"modellake/internal/obs"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

const (
	// PQCentroids is the per-subspace codebook size: one byte of code
	// addresses exactly 256 centroids.
	PQCentroids = tensor.PQLUTEntries
	// DefaultPQSubspaces is the subspace count a PQ index uses when its
	// config leaves PQSubspaces at or below zero.
	DefaultPQSubspaces = 8
	// DefaultPQTrainRows is the population at which a PQ tier trains its
	// codebook. Below it the tier stays untrained and searches run the
	// plain exact scan — an index that small has nothing to gain from an
	// approximate phase.
	DefaultPQTrainRows = 256
	// pqTrainSampleCap bounds the training sample: codebooks train on an
	// evenly strided sample of at most this many rows, so training cost and
	// transient memory stay flat as the population grows.
	pqTrainSampleCap = 16384
	// pqKMeansIters bounds the Lloyd iterations per subspace; training exits
	// early once assignments stop changing.
	pqKMeansIters = 12
)

// pqLUTBuilds counts per-query ADC lookup-table constructions — one per PQ
// search, across both the in-RAM and disk-resident indexes. Resolved at
// package init like the search counters, off the per-candidate hot path.
var pqLUTBuilds = obs.Default().Counter("ann_pq_lut_builds_total")

// pqBounds splits dim dimensions into at most m contiguous subspaces:
// subspace s covers [bounds[s], bounds[s+1]). The split is as even as
// integer arithmetic allows and never produces an empty subspace, so any
// dim ≥ 1 works with any configured m (m is clamped to dim).
func pqBounds(dim, m int) []int {
	if m > dim {
		m = dim
	}
	if m < 1 {
		m = 1
	}
	b := make([]int, m+1)
	for s := 0; s <= m; s++ {
		b[s] = s * dim / m
	}
	return b
}

// pqCodebook is a trained set of per-subspace centroids. Centroids are
// stored flat: subspace s occupies cents[PQCentroids*bounds[s] :
// PQCentroids*bounds[s+1]], centroid c of that subspace at offset c·subdim
// within it, so the whole codebook is PQCentroids·dim float64s regardless
// of how unevenly the subspaces split.
type pqCodebook struct {
	dim    int
	m      int   // effective subspace count (configured m clamped to dim)
	bounds []int // len m+1; subspace s covers dims [bounds[s], bounds[s+1])
	cents  []float64
}

// sub returns subspace s of a full-width vector.
func (cb *pqCodebook) sub(v []float64, s int) []float64 { return v[cb.bounds[s]:cb.bounds[s+1]] }

// subCents returns subspace s's PQCentroids centroids, contiguous and
// row-major — the rows of one one-vs-many kernel call.
func (cb *pqCodebook) subCents(s int) []float64 {
	return cb.cents[PQCentroids*cb.bounds[s] : PQCentroids*cb.bounds[s+1]]
}

// nearestCentroid returns the index of the centroid in cents (PQCentroids of
// them, each len(sub) wide) nearest sub under squared L2, ties to the lowest
// index (strict improvement only). Encoding and training both assign through
// it, so a row is coded exactly as k-means would have assigned it.
func nearestCentroid(sub, cents []float64) int {
	var dists [PQCentroids]float64
	tensor.SquaredL2Rows(sub, cents, dists[:])
	best := 0
	for c := 1; c < PQCentroids; c++ {
		if dists[c] < dists[best] {
			best = c
		}
	}
	return best
}

// encodeInto writes row's m codes: per subspace, the index of the nearest
// centroid.
func (cb *pqCodebook) encodeInto(row []float64, codes []uint8) {
	for s := 0; s < cb.m; s++ {
		codes[s] = uint8(nearestCentroid(cb.sub(row, s), cb.subCents(s)))
	}
}

// buildLUT fills lut (m·256 entries) with the query's per-centroid
// sub-distances: squared L2 sub-distances for L2 (their sum is monotonic in
// the true squared distance to the reconstruction, no sqrt needed for
// ranking), raw sub-dot products for Cosine (the scan divides by the norms
// per row, mirroring the int8 tier). One kernel call per subspace.
func (cb *pqCodebook) buildLUT(m Metric, q tensor.Vector, lut []float64) {
	for s := 0; s < cb.m; s++ {
		out := lut[s*PQCentroids : (s+1)*PQCentroids]
		if m == Cosine {
			tensor.DotRows(cb.sub(q, s), cb.subCents(s), out)
		} else {
			tensor.SquaredL2Rows(cb.sub(q, s), cb.subCents(s), out)
		}
	}
	pqLUTBuilds.Inc()
}

// trainPQCodebook runs per-subspace Lloyd k-means over the flattened sample
// (nSample rows of dim float64s, row-major). Subspaces train concurrently on
// up to workers goroutines (≤0 means GOMAXPROCS), but every subspace is a
// fully serial computation seeded from its own child RNG and writes a
// disjoint centroid range, so the trained bytes are identical at any worker
// count and any GOMAXPROCS setting.
func trainPQCodebook(sample []float64, nSample, dim, m int, seed uint64, workers int) *pqCodebook {
	cb := &pqCodebook{dim: dim, bounds: pqBounds(dim, m)}
	cb.m = len(cb.bounds) - 1
	cb.cents = make([]float64, PQCentroids*dim)
	rngs := make([]*xrand.RNG, cb.m)
	root := xrand.New(seed)
	for s := range rngs {
		rngs[s] = root.Child(fmt.Sprintf("pq-sub-%d", s))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cb.m {
		workers = cb.m
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= cb.m {
					return
				}
				cb.trainSubspace(s, sample, nSample, rngs[s])
			}
		}()
	}
	wg.Wait()
	return cb
}

// trainSubspace runs Lloyd k-means for one subspace. Initial centroids are
// sample rows at seeded-permutation positions (wrapping when the sample is
// smaller than the codebook — the duplicate clusters simply empty out);
// assignment ties break to the lowest centroid index, accumulation runs in
// row order, and empty clusters keep their previous centroid, so every step
// is deterministic.
func (cb *pqCodebook) trainSubspace(s int, sample []float64, nSample int, rng *xrand.RNG) {
	sd := cb.bounds[s+1] - cb.bounds[s]
	cents := cb.subCents(s)
	sub := func(i int) []float64 {
		return cb.sub(sample[i*cb.dim:(i+1)*cb.dim], s)
	}
	perm := rng.Perm(nSample)
	for c := 0; c < PQCentroids; c++ {
		copy(cents[c*sd:(c+1)*sd], sub(perm[c%nSample]))
	}
	assign := make([]int32, nSample)
	sums := make([]float64, PQCentroids*sd)
	counts := make([]int, PQCentroids)
	for iter := 0; iter < pqKMeansIters; iter++ {
		changed := false
		for i := 0; i < nSample; i++ {
			if best := int32(nearestCentroid(sub(i), cents)); best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < nSample; i++ {
			c := int(assign[i])
			acc := sums[c*sd : (c+1)*sd]
			for j, x := range sub(i) {
				acc[j] += x
			}
			counts[c]++
		}
		for c := 0; c < PQCentroids; c++ {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			cent := cents[c*sd : (c+1)*sd]
			for j := range cent {
				cent[j] = sums[c*sd+j] * inv
			}
		}
	}
}

// pqSampleIndices returns the evenly strided row indices (at most
// pqTrainSampleCap of them) a codebook trains on when the population holds n
// rows.
func pqSampleIndices(n int) []int {
	k := n
	if k > pqTrainSampleCap {
		k = pqTrainSampleCap
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// pqTier is the in-RAM product-quantized mirror of an index's rows: the
// trained codebook plus one byte of code per (row, subspace). Like quantTier
// it is not itself synchronized — the owning index's lock covers it.
type pqTier struct {
	m         int // configured subspace count (clamped to dim at training)
	trainRows int
	seed      uint64
	cb        *pqCodebook // nil until the population reaches trainRows
	codes     []uint8     // row i at codes[i*cb.m : (i+1)*cb.m]
}

func newPQTier(cfg QuantConfig) *pqTier {
	return &pqTier{m: cfg.PQSubspaces, trainRows: cfg.PQTrainRows, seed: cfg.Seed}
}

// ready reports whether the codebook exists yet. Nil-safe, so callers
// holding the result of core.pq() need no separate nil check.
func (t *pqTier) ready() bool { return t != nil && t.cb != nil }

// memBytes estimates the heap retained by the PQ tier: codes plus codebook.
func (t *pqTier) memBytes() int64 {
	n := int64(len(t.codes))
	if t.cb != nil {
		n += int64(len(t.cb.cents))*8 + int64(len(t.cb.bounds))*8
	}
	return n
}

// add appends row's codes once the codebook exists; before that the row is
// left for trainPQ, which encodes the whole population.
func (t *pqTier) add(row []float64) {
	if t.cb == nil {
		return
	}
	n := len(t.codes)
	t.codes = append(t.codes, make([]uint8, t.cb.m)...)
	t.cb.encodeInto(row, t.codes[n:n+t.cb.m])
}

// prepare builds the query's ADC table in sc.lut.
func (t *pqTier) prepare(m Metric, q tensor.Vector, _ float64, sc *scratch) {
	lutLen := t.cb.m * PQCentroids
	if cap(sc.lut) < lutLen {
		sc.lut = make([]float64, lutLen)
	}
	sc.lut = sc.lut[:lutLen]
	t.cb.buildLUT(m, q, sc.lut)
}

// scan offers rows [lo, hi) to the shortlist selector.
func (t *pqTier) scan(m Metric, sc *scratch, qNorm float64, norms []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sc.short.offer(candidate{idx: i, dist: t.approxDist(m, sc.lut, i, qNorm, norms[i])})
	}
}

// approxDist is the shortlist-ranking distance for row i under a query LUT.
// It only has to order candidates: L2 stays a sum of squared sub-distances
// (monotonic, no sqrt) and Cosine mirrors distFlat's zero-norm convention.
func (t *pqTier) approxDist(m Metric, lut []float64, i int, qNorm, rowNorm float64) float64 {
	acc := tensor.PQLUTKernel(t.codes[i*t.cb.m:(i+1)*t.cb.m], lut)
	if m == Cosine {
		if qNorm == 0 || rowNorm == 0 {
			return 1
		}
		return 1 - acc/(qNorm*rowNorm)
	}
	return acc
}

// pq returns the core's tier as a PQ tier, nil when it has another or none.
func (c *core) pq() *pqTier {
	p, _ := c.tier.(*pqTier)
	return p
}

// trainPQ trains an untrained PQ tier once the population reaches its
// threshold — from an evenly strided sample read through rowAt — and encodes
// every row. On a read error the tier is left untrained: searches keep
// running the exact scan and the next call retries.
func (c *core) trainPQ() error {
	p, n := c.pq(), len(c.ids)
	if p == nil || p.ready() || n < p.trainRows {
		return nil
	}
	sc := c.scratch.Get().(*scratch)
	defer c.scratch.Put(sc)
	idxs := pqSampleIndices(n)
	sample := make([]float64, 0, len(idxs)*c.dim)
	for _, i := range idxs {
		row, err := c.rowAt(sc, i)
		if err != nil {
			return fmt.Errorf("index: pq train: %w", err)
		}
		sample = append(sample, row...)
	}
	p.cb = trainPQCodebook(sample, len(idxs), c.dim, p.m, p.seed, 0)
	p.codes = make([]uint8, 0, n*p.cb.m)
	for i := 0; i < n; i++ {
		row, err := c.rowAt(sc, i)
		if err != nil {
			p.cb, p.codes = nil, nil
			return fmt.Errorf("index: pq encode: %w", err)
		}
		p.add(row)
	}
	return nil
}
