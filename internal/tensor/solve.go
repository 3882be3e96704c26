package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a (numerically) singular linear system.
var ErrSingular = errors.New("tensor: singular matrix")

// Solve returns x with a*x = b using Gaussian elimination with partial
// pivoting. a must be square and is not modified.
func Solve(a Matrix, b Vector) (Vector, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("tensor: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("tensor: Solve rhs length %d != %d", len(b), n)
	}
	// Augmented working copies.
	m := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := m.Row(pivot), m.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := m.Row(r), m.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= float64(f * cr[j])
			}
			x[r] -= float64(f * x[col])
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		row := m.Row(col)
		for j := col + 1; j < n; j++ {
			s -= float64(row[j] * x[j])
		}
		x[col] = s / row[col]
	}
	return x, nil
}

// CovarianceOfRows returns the (ridge-regularized) second-moment matrix of
// the rows of m: (1/n) Σ row·rowᵀ + lambda·I. It is the context statistic
// used by covariance-aware model editing.
func CovarianceOfRows(m Matrix, lambda float64) Matrix {
	c := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		c.AddOuter(1, m.Row(i), m.Row(i))
	}
	if m.Rows > 0 {
		c.Scale(1 / float64(m.Rows))
	}
	for j := 0; j < m.Cols; j++ {
		c.Set(j, j, c.At(j, j)+lambda)
	}
	return c
}
