package tensor

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"modellake/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	n := v.Normalize()
	if n != 5 {
		t.Fatalf("returned norm = %v, want 5", n)
	}
	if !almostEqual(v.Norm(), 1, 1e-12) {
		t.Fatalf("normalized norm = %v, want 1", v.Norm())
	}
	z := Vector{0, 0}
	if z.Normalize() != 0 {
		t.Fatal("zero vector norm should be 0")
	}
}

func TestArgMax(t *testing.T) {
	if got := (Vector{1, 5, 3}).ArgMax(); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := (Vector{}).ArgMax(); got != -1 {
		t.Fatalf("ArgMax(empty) = %d, want -1", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity(Vector{1, 0}, Vector{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("cos(same) = %v", got)
	}
	if got := CosineSimilarity(Vector{1, 0}, Vector{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("cos(orthogonal) = %v", got)
	}
	if got := CosineSimilarity(Vector{0, 0}, Vector{1, 1}); got != 0 {
		t.Fatalf("cos with zero vector = %v, want 0", got)
	}
}

func TestMatVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(2)
	m.MatVec(dst, Vector{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", dst)
	}
}

func TestMatVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := NewVector(3)
	m.MatVecT(dst, Vector{1, 1})
	want := Vector{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatVecT = %v, want %v", dst, want)
		}
	}
}

func TestMatMulAgainstTranspose(t *testing.T) {
	rng := xrand.New(5)
	a := NewMatrix(4, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := NewMatrix(3, 5)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	c := MatMul(a, b)
	// (AB)ᵀ == Bᵀ Aᵀ
	lhs := c.Transpose()
	rhs := MatMul(b.Transpose(), a.Transpose())
	for i := range lhs.Data {
		if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-12) {
			t.Fatalf("transpose identity violated at %d", i)
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestSubAndFrobenius(t *testing.T) {
	a := NewMatrix(1, 2)
	copy(a.Data, []float64{3, 4})
	b := NewMatrix(1, 2)
	d := Sub(a, b)
	if got := d.FrobeniusNorm(); got != 5 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrix(1, 1)
	c := a.Clone()
	c.Data[0] = 7
	if a.Data[0] != 0 {
		t.Fatal("Clone shares storage")
	}
	v := Vector{1}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vector Clone shares storage")
	}
}

// Property: MatVec distributes over vector addition.
func TestMatVecLinearityProperty(t *testing.T) {
	rng := xrand.New(99)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		rows := 1 + r.Intn(6)
		cols := 1 + r.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		x := NewVector(cols)
		y := NewVector(cols)
		for i := 0; i < cols; i++ {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		sum := x.Clone()
		sum.AddScaled(1, y)
		d1 := NewVector(rows)
		m.MatVec(d1, sum)
		dx := NewVector(rows)
		dy := NewVector(rows)
		m.MatVec(dx, x)
		m.MatVec(dy, y)
		for i := range d1 {
			if !almostEqual(d1[i], dx[i]+dy[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if !almostEqual(s.Variance, 2, 1e-12) {
		t.Fatalf("variance = %v, want 2", s.Variance)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize should be zero")
	}
}

func TestKurtosisOfNormalNearZero(t *testing.T) {
	rng := xrand.New(31)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	s := Summarize(xs)
	if math.Abs(s.Kurtosis) > 0.1 {
		t.Fatalf("normal excess kurtosis = %v, want ~0", s.Kurtosis)
	}
}

func TestSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := SpearmanCorrelation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect monotone spearman = %v, want 1", got)
	}
	rev := []float64{10, 8, 6, 4, 2}
	if got := SpearmanCorrelation(xs, rev); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("reversed spearman = %v, want -1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 1, 2}
	ys := []float64{5, 5, 9}
	got := SpearmanCorrelation(xs, ys)
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("tied spearman = %v, want 1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if got := PearsonCorrelation([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Fatalf("zero-variance pearson = %v, want 0", got)
	}
}

func TestTopSingularValuesRankOne(t *testing.T) {
	// A = u vᵀ has exactly one nonzero singular value = ‖u‖‖v‖.
	u := Vector{1, 2, 2} // norm 3
	v := Vector{3, 4}    // norm 5
	a := NewMatrix(3, 2)
	a.AddOuter(1, u, v)
	sv := TopSingularValues(a, 2, 60, xrand.New(1))
	if len(sv) == 0 || !almostEqual(sv[0], 15, 1e-6) {
		t.Fatalf("top singular value = %v, want 15", sv)
	}
	if len(sv) > 1 && sv[1] > 1e-6 {
		t.Fatalf("second singular value = %v, want ~0", sv[1])
	}
	if r := EffectiveRank(sv, 1e-3); r != 1 {
		t.Fatalf("effective rank = %d, want 1", r)
	}
}

func TestTopSingularValuesDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 5)
	a.Set(1, 1, 3)
	a.Set(2, 2, 1)
	sv := TopSingularValues(a, 3, 80, xrand.New(2))
	want := []float64{5, 3, 1}
	if len(sv) != 3 {
		t.Fatalf("got %d singular values, want 3", len(sv))
	}
	for i := range want {
		if !almostEqual(sv[i], want[i], 1e-4) {
			t.Fatalf("sv = %v, want %v", sv, want)
		}
	}
}

func TestEffectiveRankEmpty(t *testing.T) {
	if EffectiveRank(nil, 0.1) != 0 {
		t.Fatal("rank of empty spectrum should be 0")
	}
	if EffectiveRank([]float64{0}, 0.1) != 0 {
		t.Fatal("rank of zero spectrum should be 0")
	}
}

func TestRandomProjectionDeterminism(t *testing.T) {
	p1 := NewRandomProjection(16, 4, 7)
	p2 := NewRandomProjection(16, 4, 7)
	x := make(Vector, 16)
	for i := range x {
		x[i] = float64(i)
	}
	a := p1.Apply(x)
	b := p2.Apply(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("projections with the same seed differ")
		}
	}
}

func TestRandomProjectionFolding(t *testing.T) {
	p := NewRandomProjection(4, 2, 3)
	short := Vector{1, 2}
	long := Vector{1, 2, 0, 0, 0, 0} // folds to the same as short padded
	a := p.Apply(short)
	b := p.Apply(long)
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-12) {
			t.Fatal("folding inconsistent with zero padding")
		}
	}
}

func TestRandomProjectionPreservesSimilarity(t *testing.T) {
	// JL-style sanity check: nearby vectors stay nearer than far vectors.
	rng := xrand.New(77)
	p := NewRandomProjection(256, 32, 9)
	base := make(Vector, 256)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	near := base.Clone()
	for i := range near {
		near[i] += 0.01 * rng.NormFloat64()
	}
	far := make(Vector, 256)
	for i := range far {
		far[i] = rng.NormFloat64()
	}
	pb, pn, pf := p.Apply(base), p.Apply(near), p.Apply(far)
	if L2Distance(pb, pn) >= L2Distance(pb, pf) {
		t.Fatal("projection did not preserve relative distances")
	}
}

// foldThenMatVec is the sketch as it was first written: fold x into a fresh
// zero vector of length In, then multiply the whole matrix by it. Apply must
// return these bits for every input.
func foldThenMatVec(p *RandomProjection, x Vector) Vector {
	folded := NewVector(p.In)
	for i, v := range x {
		folded[i%p.In] += v
	}
	out := NewVector(p.Out)
	for i := range out {
		s := 0.0
		for j, w := range p.m.Data[i*p.In : (i+1)*p.In] {
			s += float64(w * folded[j])
		}
		out[i] = s
	}
	return out
}

// TestRandomProjectionMatchesFold: skipping the zero padding of a short
// input changes no bit of the sketch. Each skipped term is w·(+0) = ±0 added
// to an accumulator that starts at +0 and so is never −0, and folding x[j]
// into +0 changes at most the sign of a zero — neither shows in the sum.
func TestRandomProjectionMatchesFold(t *testing.T) {
	p := NewRandomProjection(4096, 32, 12345)
	rng := xrand.New(41)
	specials := []float64{math.Copysign(0, -1), 5e-324, -2.5e-310, math.NaN(),
		math.Inf(1), math.Inf(-1)}
	fills := map[string]func(n int) Vector{
		"gaussian": func(n int) Vector {
			x := make(Vector, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			return x
		},
		"negzero": func(n int) Vector {
			x := make(Vector, n)
			for i := range x {
				x[i] = math.Copysign(0, -1)
			}
			return x
		},
		"subnormal": func(n int) Vector {
			x := make(Vector, n)
			for i := range x {
				x[i] = float64(i%7-3) * 5e-324
			}
			return x
		},
	}
	for i, s := range specials {
		s := s
		fills["gaussian+"+strconv.Itoa(i)] = func(n int) Vector {
			x := fills["gaussian"](n)
			for j := 0; j < n; j += 13 {
				x[j] = s
			}
			return x
		}
	}
	for _, n := range []int{0, 1, 99, 4095, 4096, 4097, 3*4096 + 5} {
		for name, fill := range fills {
			x := fill(n)
			want := foldThenMatVec(p, x)
			got := p.Apply(x)
			if len(got) != len(want) {
				t.Fatalf("len %d %s: got %d outputs, want %d", n, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("len %d %s: out[%d] = %v (%#x), fold gives %v (%#x)", n, name, i,
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestRandomProjectionShortInputAllocatesOnlyOutput: an input no longer than
// In is read in place, so the returned vector is the only allocation.
func TestRandomProjectionShortInputAllocatesOnlyOutput(t *testing.T) {
	p := NewRandomProjection(4096, 32, 12345)
	for _, n := range []int{0, 99, 4096} {
		x := make(Vector, n)
		for i := range x {
			x[i] = float64(i)
		}
		if a := testing.AllocsPerRun(50, func() { p.Apply(x) }); a != 1 {
			t.Fatalf("Apply of %d inputs allocates %v times per run, want 1", n, a)
		}
	}
}

func TestMatrixEncodeRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	m := NewMatrix(5, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.Cols != m.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, m.Rows, m.Cols)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("round trip changed data")
		}
	}
}

func TestReadMatrixBadMagic(t *testing.T) {
	if _, err := ReadMatrix(bytes.NewReader(make([]byte, 12))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadMatrixTruncated(t *testing.T) {
	var buf bytes.Buffer
	m := NewMatrix(2, 2)
	if err := WriteMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadMatrix(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func BenchmarkMatVec128(b *testing.B) {
	m := NewMatrix(128, 128)
	rng := xrand.New(1)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := NewVector(128)
	dst := NewVector(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatVec(dst, x)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	m := NewMatrix(64, 64)
	rng := xrand.New(1)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(m, m)
	}
}

// BenchmarkRandomProjectionApply99 sketches a 99-parameter model (the bench
// harness's population) through the weight embedder's 4096 → 32 projection.
func BenchmarkRandomProjectionApply99(b *testing.B) {
	p := NewRandomProjection(4096, 32, 12345)
	x := Vector(randSlice(99, 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Apply(x)
	}
}
