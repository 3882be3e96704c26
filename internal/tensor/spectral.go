package tensor

import (
	"math"

	"modellake/internal/xrand"
)

// TopSingularValues estimates the k largest singular values of m using power
// iteration with deflation. It is used to estimate the effective rank of
// weight deltas: a LoRA update of rank r has only r significant singular
// values, while full fine-tuning perturbs the whole spectrum.
//
// iters controls the number of power-iteration steps per singular value;
// 30-50 is ample for the well-separated spectra this repository produces.
func TopSingularValues(m Matrix, k, iters int, rng *xrand.RNG) []float64 {
	if k <= 0 {
		return nil
	}
	maxRank := m.Rows
	if m.Cols < maxRank {
		maxRank = m.Cols
	}
	if k > maxRank {
		k = maxRank
	}
	work := m.Clone()
	out := make([]float64, 0, k)
	u := NewVector(work.Rows)
	v := NewVector(work.Cols)
	for s := 0; s < k; s++ {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		v.Normalize()
		sigma := 0.0
		for it := 0; it < iters; it++ {
			work.MatVec(u, v)   // u = A v
			un := u.Normalize() // ‖Av‖
			work.MatVecT(v, u)  // v = Aᵀ u
			sigma = v.Normalize()
			if un == 0 || sigma == 0 {
				break
			}
		}
		if sigma <= 0 || math.IsNaN(sigma) {
			break
		}
		out = append(out, sigma)
		// Deflate: A ← A − σ u vᵀ.
		work.AddOuter(-sigma, u, v)
	}
	return out
}

// EffectiveRank returns the number of singular values in sv that exceed
// tol * sv[0]. An empty spectrum has rank 0.
func EffectiveRank(sv []float64, tol float64) int {
	if len(sv) == 0 || sv[0] <= 0 {
		return 0
	}
	r := 0
	for _, s := range sv {
		if s > tol*sv[0] {
			r++
		}
	}
	return r
}

// RandomProjection is a fixed random linear map R^in → R^out used to sketch
// high-dimensional weight vectors into a small embedding. The projection is
// a seeded dense Gaussian matrix scaled by 1/sqrt(out), giving approximate
// inner-product preservation (Johnson–Lindenstrauss).
type RandomProjection struct {
	In, Out int
	m       Matrix
}

// NewRandomProjection builds a projection with a deterministic matrix derived
// from seed. The same (in, out, seed) always produces the same map, so
// embeddings computed by different processes are comparable.
func NewRandomProjection(in, out int, seed uint64) *RandomProjection {
	rng := xrand.New(seed)
	m := NewMatrix(out, in)
	scale := 1 / math.Sqrt(float64(out))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return &RandomProjection{In: in, Out: out, m: m}
}

// Apply projects x (length In) to a new vector of length Out. Inputs shorter
// than In are implicitly zero-padded; longer inputs are folded by summing
// chunks, so arbitrarily sized weight vectors map into the same space.
//
// A short input is read in place: out[i] sums m[i][j]·x[j] over j < len(x)
// only, in the same order as a product against the padded vector, so the
// sketch costs Out × len(x) multiply-adds and allocates nothing but out.
// The padding terms it skips are all w·(+0) = ±0, and adding ±0 to an
// accumulator that starts at +0 never changes its bits, so the answer is the
// padded product's, bit for bit. Only an input longer than In pays for a
// folded copy.
func (p *RandomProjection) Apply(x Vector) Vector {
	if len(x) > p.In {
		folded := NewVector(p.In)
		for i, v := range x {
			folded[i%p.In] += v
		}
		x = folded
	}
	out := NewVector(p.Out)
	for i := range out {
		row := p.m.Data[i*p.In : i*p.In+len(x)]
		s := 0.0
		for j, w := range row {
			s += float64(w * x[j])
		}
		out[i] = s
	}
	return out
}
