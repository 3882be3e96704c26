package tensor

// The distance kernels behind the read path of the §5 indexer. Every vector
// search — flat scan or HNSW beam — reduces to dot products and squared
// differences over contiguous float64 slices, so these two loops dominate
// query latency at lake scale. Both are 4-way unrolled with independent
// accumulators (breaking the loop-carried dependence lets the CPU keep four
// multiply-then-add chains in flight) and allocate nothing.
//
// The reduction order is fixed — ((s0+s1)+(s2+s3)) then the scalar tail — so
// results are deterministic across calls and across every caller that routes
// through them. Exact-equivalence tests in internal/index depend on that:
// a distance computed against flattened storage must be bitwise identical to
// one computed through Vector.Dot on a cloned slice.
//
// Every product is rounded before it is added: the float64(...) conversions
// below are the language's fusion barrier. Without them Go emits a fused
// multiply-add on arm64, ppc64le, s390x and riscv64 (one rounding instead of
// two), and the same lake would answer with different bits on different
// machines. On amd64 the compiler never fuses and the conversions compile to
// nothing.
//
// DotRows and SquaredL2Rows are the one-query-against-many-rows form of the
// same two kernels, bit for bit. On amd64 with AVX2 they run in assembly
// (kernel_amd64.s); the single-pair kernels stay pure Go as the portable path
// and the oracle the assembly is tested against.

// DotKernel returns the inner product of a and b, which must have equal
// length (callers validate; the slice bound below panics otherwise).
func DotKernel(a, b []float64) float64 {
	n := len(a)
	b = b[:n] // one bounds check, then the loop body elides the rest
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		s += float64(a[i] * b[i])
	}
	return s
}

// SquaredL2Kernel returns the squared Euclidean distance between a and b,
// which must have equal length.
func SquaredL2Kernel(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// DotRows sets out[r] to DotKernel(q, rows[r*len(q):(r+1)*len(q)]) for every
// r — one query against len(out) contiguous rows — bit for bit. rows must
// hold exactly len(out) rows of len(q) elements; anything else panics rather
// than read past the slab.
func DotRows(q, rows, out []float64) {
	dim := len(q)
	if len(rows) != len(out)*dim {
		panic("tensor: DotRows: len(rows) != len(out)*len(q)")
	}
	if rowsKernelUsable(dim, len(out)) {
		dotRowsAVX2(&q[0], &rows[0], &out[0], dim, len(out))
		return
	}
	for r := range out {
		out[r] = DotKernel(q, rows[r*dim:(r+1)*dim])
	}
}

// SquaredL2Rows is DotRows for SquaredL2Kernel.
func SquaredL2Rows(q, rows, out []float64) {
	dim := len(q)
	if len(rows) != len(out)*dim {
		panic("tensor: SquaredL2Rows: len(rows) != len(out)*len(q)")
	}
	if rowsKernelUsable(dim, len(out)) {
		squaredL2RowsAVX2(&q[0], &rows[0], &out[0], dim, len(out))
		return
	}
	for r := range out {
		out[r] = SquaredL2Kernel(q, rows[r*dim:(r+1)*dim])
	}
}

// rowsKernelUsable reports whether the assembly kernels can take a dim×n
// call: the CPU has AVX2, there is at least one element to point at, and dim
// is a whole number of four-lane steps (the scalar tail after the lane
// reduction stays in Go — only uneven PQ subspaces ever have one).
func rowsKernelUsable(dim, n int) bool {
	return hasAVX2 && n > 0 && dim > 0 && dim%4 == 0
}
