package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"modellake/internal/xrand"
)

// The one-vs-many kernels against their oracle, the single-pair Go kernels.
// The same file runs on the default build (assembly on an AVX2 machine) and
// under -tags purego (the Go loop), so both paths are held to the same bits.

var rowsKernels = []struct {
	name string
	rows func(q, rows, out []float64)
	pair func(a, b []float64) float64
}{
	{"DotRows", DotRows, DotKernel},
	{"SquaredL2Rows", SquaredL2Rows, SquaredL2Kernel},
}

// extremes are the values rounding bugs hide behind: signed zeros, denormals,
// magnitudes whose products underflow or overflow to ±Inf (and so Inf−Inf =
// NaN in a dot product's accumulators).
var extremes = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310,
	1e-300, -1e-300, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	1.5, -2.25, 1 + 0x1p-52, 1e-160, 3e154,
}

// sameBits is the equivalence the kernels owe each other: identical bits,
// except that any NaN equals any NaN (x86 and Go agree a sum is NaN, not on
// which operand's payload it carries).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRows runs one kernel over q against n rows and compares every output
// with the single-pair kernel's.
func checkRows(t testing.TB, name string, rowsFn func(q, rows, out []float64), pair func(a, b []float64) float64, q, rows, out []float64) {
	t.Helper()
	dim := len(q)
	rowsFn(q, rows, out)
	for r := range out {
		if want := pair(q, rows[r*dim:(r+1)*dim]); !sameBits(out[r], want) {
			t.Fatalf("%s dim=%d n=%d row %d: got %x (%v) want %x (%v)", name, dim, len(out), r,
				math.Float64bits(out[r]), out[r], math.Float64bits(want), want)
		}
	}
}

func TestRowsKernelsBitwise(t *testing.T) {
	dims := []int{64, 255, 256, 257}
	for d := 1; d <= 40; d++ {
		dims = append(dims, d)
	}
	ns := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 1024, 1027}
	rng := xrand.New(18)
	fill := func(xs []float64, extreme bool) {
		for i := range xs {
			if extreme && rng.Intn(3) > 0 {
				xs[i] = extremes[rng.Intn(len(extremes))]
			} else {
				xs[i] = rng.NormFloat64()
			}
		}
	}
	// Backing arrays are sliced at odd element offsets so neither the query,
	// the slab nor the output is 32-byte aligned.
	const pad = 3
	maxDim, maxN := 257, 1027
	qBack := make([]float64, maxDim+pad)
	rowsBack := make([]float64, maxDim*maxN+pad)
	outBack := make([]float64, maxN+pad)
	for _, dim := range dims {
		for _, n := range ns {
			for _, off := range []int{0, 1, pad} {
				for _, extreme := range []bool{false, true} {
					q := qBack[off : off+dim]
					rows := rowsBack[off : off+dim*n]
					out := outBack[off : off+n]
					fill(q, extreme)
					fill(rows, extreme)
					for _, k := range rowsKernels {
						checkRows(t, fmt.Sprintf("%s off=%d extreme=%v", k.name, off, extreme), k.rows, k.pair, q, rows, out)
					}
				}
			}
		}
	}
}

// FuzzRowsKernels decodes raw bytes into (dim, n, floats) and holds both
// kernels to the single-pair oracle. The floats are arbitrary bit patterns —
// NaNs, infinities and denormals included — recycled to fill the slab.
func FuzzRowsKernels(f *testing.F) {
	seed := func(dim, n byte, vals ...float64) {
		b := []byte{dim, n}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(4, 4, 1, 2, 3, 4, 5)
	seed(32, 9, extremes...)
	seed(7, 5, 1e300, -1e300, 1e300)
	seed(8, 1, math.Inf(1), math.Inf(-1), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim, n := int(data[0])%68, int(data[1])%11
		data = data[2:]
		vals := make([]float64, (n+1)*dim)
		if words := len(data) / 8; words > 0 {
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i%words*8:]))
			}
		}
		out := make([]float64, n)
		for _, k := range rowsKernels {
			checkRows(t, k.name, k.rows, k.pair, vals[:dim], vals[dim:], out)
		}
	})
}

func TestRowsKernelsZeroAlloc(t *testing.T) {
	q, rows, out := randSlice(32, 1), randSlice(32*9, 2), make([]float64, 9)
	for _, k := range rowsKernels {
		if n := testing.AllocsPerRun(100, func() { k.rows(q, rows, out) }); n != 0 {
			t.Fatalf("%s allocates %v per run", k.name, n)
		}
	}
}

// A slab that does not hold exactly len(out) rows must panic before any
// element is read: the assembly has no bounds checks of its own.
func TestRowsKernelsPanicOnShortSlices(t *testing.T) {
	q, rows, out := randSlice(8, 1), randSlice(8*5, 2), make([]float64, 5)
	for _, k := range rowsKernels {
		for name, call := range map[string]func(){
			"short rows": func() { k.rows(q, rows[:len(rows)-1], out) },
			"short out":  func() { k.rows(q, rows, out[:len(out)-1]) },
			"short q":    func() { k.rows(q[:7], rows, out) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s with %s did not panic", k.name, name)
					}
				}()
				call()
			}()
		}
	}
}

func benchRows(b *testing.B, fn func(q, rows, out []float64)) {
	for _, shape := range []struct{ dim, n int }{{256, 4160}, {32, 256}} {
		b.Run(fmt.Sprintf("%dx%d", shape.dim, shape.n), func(b *testing.B) {
			q := randSlice(shape.dim, 1)
			rows := randSlice(shape.dim*shape.n, 2)
			out := make([]float64, shape.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(q, rows, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.n), "ns/row")
		})
	}
}

func BenchmarkDotRows(b *testing.B)       { benchRows(b, DotRows) }
func BenchmarkSquaredL2Rows(b *testing.B) { benchRows(b, SquaredL2Rows) }
