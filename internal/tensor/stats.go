package tensor

import "math"

// Stats summarizes the distribution of a sample of float64 values. It is used
// by the weight-space embedders and by the version-direction heuristics
// (kurtosis drift under fine-tuning).
type Stats struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	Skewness float64
	Kurtosis float64 // excess kurtosis (normal = 0)
	Min, Max float64
	AbsMean  float64
}

// Summarize computes distribution statistics for xs in a single pass over the
// central moments. An empty input yields the zero Stats.
func Summarize(xs []float64) Stats {
	n := len(xs)
	if n == 0 {
		return Stats{}
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)

	var m2, m3, m4, absSum float64
	min, max := xs[0], xs[0]
	for _, x := range xs {
		d := x - mean
		d2 := float64(d * d)
		m2 += d2
		m3 += float64(d2 * d)
		m4 += float64(d2 * d2)
		absSum += math.Abs(x)
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	m2 /= float64(n)
	m3 /= float64(n)
	m4 /= float64(n)

	s := Stats{
		N:        n,
		Mean:     mean,
		Variance: m2,
		Min:      min,
		Max:      max,
		AbsMean:  absSum / float64(n),
	}
	if m2 > 0 {
		sd := math.Sqrt(m2)
		s.Skewness = m3 / (sd * sd * sd)
		s.Kurtosis = m4/(m2*m2) - 3
	}
	return s
}

// SpearmanCorrelation returns the Spearman rank correlation between xs and
// ys, which must have equal nonzero length. Ties receive fractional ranks.
func SpearmanCorrelation(xs, ys []float64) float64 {
	rx := ranks(xs)
	ry := ranks(ys)
	return PearsonCorrelation(rx, ry)
}

// PearsonCorrelation returns the Pearson correlation coefficient of xs and
// ys, or 0 when either input has zero variance.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("tensor: correlation length mismatch")
	}
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks returns fractional ranks (1-based, ties averaged).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion-free sort by value; n is small in our uses, but use an
	// O(n log n) sort for safety.
	sortIdx(idx, xs)
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func sortIdx(idx []int, key []float64) {
	// Simple bottom-up merge sort to avoid importing sort for a closure.
	n := len(idx)
	buf := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if key[idx[i]] <= key[idx[j]] {
					buf[k] = idx[i]
					i++
				} else {
					buf[k] = idx[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = idx[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = idx[j]
				j++
				k++
			}
			copy(idx[lo:hi], buf[lo:hi])
		}
	}
}
