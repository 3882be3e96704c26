package index

// The int8 quantized read tier behind the atlas-scale flat indexes
// (DESIGN.md §12). A quantized scan ranks every row by an approximate
// distance computed from int8 codes — 8 bytes of float64 per component
// become 1 byte — and selects an over-fetched shortlist of k·rescoreFactor
// candidates; the caller then rescores only the shortlist against the
// full-precision rows with the exact distFlat arithmetic and the exact
// (distance, ID) total order. Whenever the true top-k survives the
// shortlist cut (the recall condition the rescore factor buys), the final
// answer is bitwise identical to a full-precision flat scan.

import "modellake/internal/tensor"

// DefaultRescoreFactor is the shortlist over-fetch multiplier a quantized
// index uses when its config leaves it unset: the quantized phase keeps
// k·factor candidates for exact rescoring.
const DefaultRescoreFactor = 8

// QuantConfig tunes a quantized index tier.
type QuantConfig struct {
	// RescoreFactor is the shortlist over-fetch multiplier (k·factor
	// candidates survive the quantized phase). Values below 1 select
	// DefaultRescoreFactor. Factor 1 rescores exactly k candidates — legal
	// here so adversarial tests can exercise recall misses; the lake's
	// config validation imposes its own, higher floor.
	RescoreFactor int

	// SpillTailRows bounds the in-RAM full-precision tail of a
	// disk-resident index: once that many rows accumulate past the on-disk
	// segment, Add compacts segment + tail into a fresh segment file and
	// releases the tail, keeping resident memory flat under sustained
	// ingest. 0 selects DefaultSpillTailRows; negative disables spilling.
	// Pure in-RAM indexes ignore it.
	SpillTailRows int

	// PQSubspaces selects the product-quantized tier (DESIGN.md §14)
	// instead of the int8 tier, with this many one-byte subspace codes per
	// row. Zero keeps the int8 tier; NewFlatPQ treats non-positive values
	// as DefaultPQSubspaces. Values above the vector dimension are clamped
	// to it at training time.
	PQSubspaces int

	// PQTrainRows is the population at which a PQ tier trains its codebook
	// (untrained tiers serve the plain exact scan). At or below zero
	// selects DefaultPQTrainRows. Only meaningful with PQSubspaces.
	PQTrainRows int

	// Seed drives PQ codebook training (k-means init). Training is fully
	// deterministic in (seed, input); two indexes built from the same rows
	// and seed carry byte-identical codebooks.
	Seed uint64
}

func (c QuantConfig) withDefaults() QuantConfig {
	if c.RescoreFactor < 1 {
		c.RescoreFactor = DefaultRescoreFactor
	}
	if c.SpillTailRows == 0 {
		c.SpillTailRows = DefaultSpillTailRows
	}
	if c.PQSubspaces > 0 && c.PQTrainRows <= 0 {
		c.PQTrainRows = DefaultPQTrainRows
	}
	return c
}

// quantTier is the in-RAM int8 mirror of a flat index's rows: per-row codes
// plus the (min, scale, codesum) triple that dequantizes them. It is not
// itself synchronized — the owning index's lock covers it.
type quantTier struct {
	dim    int
	codes  []int8    // row i at codes[i*dim : (i+1)*dim]
	mins   []float64 // per-row affine offset
	scales []float64 // per-row affine scale
	sums   []int32   // per-row Σ codes, precomputed for the dot expansion
}

func (t *quantTier) add(row []float64) {
	if t.dim == 0 {
		t.dim = len(row)
	}
	n := len(t.codes)
	t.codes = append(t.codes, make([]int8, t.dim)...)
	min, scale, sum := tensor.QuantizeRowInt8(row, t.codes[n:n+t.dim])
	t.mins = append(t.mins, min)
	t.scales = append(t.scales, scale)
	t.sums = append(t.sums, sum)
}

func (t *quantTier) ready() bool { return true }

func (t *quantTier) memBytes() int64 {
	return int64(len(t.codes)) + int64(len(t.mins))*8 + int64(len(t.scales))*8 + int64(len(t.sums))*4
}

// reserve pre-sizes the tier for n more rows of dimension dim.
func (t *quantTier) reserve(n, dim int) {
	t.codes = grow(t.codes, n*dim)
	t.mins = grow(t.mins, n)
	t.scales = grow(t.scales, n)
	t.sums = grow(t.sums, n)
}

// quantQuery is a query quantized into the tier's code space, plus the
// query-side norms the approximate distances need.
type quantQuery struct {
	codes []int8
	min   float64
	scale float64
	sum   int32
	norm  float64 // Euclidean norm (Cosine)
	norm2 float64 // squared norm (L2)
}

// prepare quantizes q into sc.qq for a scan under the given metric. qNorm is
// the exact query norm the caller already computed via Metric.queryNorm.
func (t *quantTier) prepare(m Metric, q tensor.Vector, qNorm float64, sc *scratch) {
	qq := &sc.qq
	if cap(qq.codes) < len(q) {
		qq.codes = make([]int8, len(q))
	}
	qq.codes = qq.codes[:len(q)]
	qq.min, qq.scale, qq.sum = tensor.QuantizeRowInt8(q, qq.codes)
	qq.norm = qNorm
	if m == L2 {
		qq.norm2 = tensor.DotKernel(q, q)
	} else {
		qq.norm2 = 0
	}
}

// approxDot expands the int8 dot product of the query codes against row i
// back into an approximation of the float64 inner product:
//
//	Σ q̂·r̂ = qs·rs·(D + 128·Sq + 128·Sr + 128²·d)
//	       + qs·rmin·(Sq + 128·d) + rs·qmin·(Sr + 128·d) + d·qmin·rmin
//
// where D is the integer code dot, Sq/Sr the code sums, and d the dimension.
func (t *quantTier) approxDot(qq *quantQuery, i int) float64 {
	d := int64(t.dim)
	D := int64(tensor.DotInt8Kernel(qq.codes, t.codes[i*t.dim:(i+1)*t.dim]))
	sq, sr := int64(qq.sum), int64(t.sums[i])
	rs, rmin := t.scales[i], t.mins[i]
	return qq.scale*rs*float64(D+128*(sq+sr)+16384*d) +
		qq.scale*rmin*float64(sq+128*d) +
		rs*qq.min*float64(sr+128*d) +
		float64(d)*qq.min*rmin
}

// approxDist is the shortlist-ranking distance for row i. It only has to
// order candidates, so the L2 form stays squared (monotonic in the true
// distance, no sqrt) and Cosine mirrors distFlat's zero-norm convention.
func (t *quantTier) approxDist(m Metric, qq *quantQuery, i int, rowNorm float64) float64 {
	if m == Cosine {
		if qq.norm == 0 || rowNorm == 0 {
			return 1
		}
		return 1 - t.approxDot(qq, i)/(qq.norm*rowNorm)
	}
	return qq.norm2 + rowNorm*rowNorm - 2*t.approxDot(qq, i)
}

// scan offers rows [lo, hi) to the shortlist selector.
func (t *quantTier) scan(m Metric, sc *scratch, _ float64, norms []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sc.short.offer(candidate{idx: i, dist: t.approxDist(m, &sc.qq, i, norms[i])})
	}
}
