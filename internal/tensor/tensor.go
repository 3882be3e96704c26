// Package tensor implements the dense linear-algebra substrate for the model
// lake: vectors, row-major matrices, the handful of BLAS-like kernels needed
// for neural-network training, plus statistics and spectral helpers used by
// the lake tasks (weight-delta rank estimation, random-projection sketching).
//
// Everything is float64 and allocation-explicit; hot paths take destination
// arguments where it matters. Matrices are value types holding a shared
// backing slice; Clone produces deep copies. Every product is rounded before
// it is added (float64(...), the fusion barrier kernel.go explains), so the
// embeddings computed here have the same bits on every architecture.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	return DotKernel(v, w)
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AddScaled adds alpha*w to v in place. It panics on length mismatch.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += float64(alpha * w[i])
	}
}

// Scale multiplies v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ArgMax returns the index of the largest element, or -1 for an empty vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Normalize scales v to unit Euclidean norm in place. Zero vectors are left
// unchanged. It returns the original norm.
func (v Vector) Normalize() float64 {
	n := v.Norm()
	if n > 0 {
		v.Scale(1 / n)
	}
	return n
}

// CosineSimilarity returns the cosine of the angle between v and w, or 0 if
// either vector is zero.
func CosineSimilarity(v, w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// L2Distance returns the Euclidean distance between v and w.
func L2Distance(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: L2Distance length mismatch %d vs %d", len(v), len(w)))
	}
	return math.Sqrt(SquaredL2Kernel(v, w))
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector aliasing the matrix storage.
func (m Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	out := Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to zero.
func (m Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddScaled adds alpha*other to m in place. Shapes must match.
func (m Matrix) AddScaled(alpha float64, other Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += float64(alpha * v)
	}
}

// Scale multiplies every element of m by alpha in place.
func (m Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols. dst may not alias x.
func (m Matrix) MatVec(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += float64(w * x[j])
		}
		dst[i] = s
	}
}

// MatVecT computes dst = mᵀ * x. dst must have length m.Cols and x length
// m.Rows.
func (m Matrix) MatVecT(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += float64(w * xi)
		}
	}
}

// AddOuter adds alpha * a ⊗ b to m in place, where a has length m.Rows and b
// has length m.Cols.
func (m Matrix) AddOuter(alpha float64, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuter shape mismatch m=%dx%d a=%d b=%d",
			m.Rows, m.Cols, len(a), len(b)))
	}
	for i := 0; i < m.Rows; i++ {
		ai := alpha * a[i]
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += float64(ai * b[j])
		}
	}
}

// MatMul returns a*b as a new matrix. a.Cols must equal b.Rows.
func MatMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// Sub returns a-b as a new matrix.
func Sub(a, b Matrix) Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %dx%d vs %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := a.Clone()
	out.AddScaled(-1, b)
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Transpose returns mᵀ as a new matrix.
func (m Matrix) Transpose() Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}
