//go:build amd64 && !purego

package tensor

// hasAVX2 is resolved once at package init by CPUID + XGETBV (the OS must
// have enabled the YMM state, not just the CPU the instructions).
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// dotRowsAVX2 and squaredL2RowsAVX2 are the bodies of DotRows and
// SquaredL2Rows for dim%4 == 0, dim > 0, n > 0: rows holds n rows of dim
// float64s, out n results. See kernel_amd64.s for why they return the scalar
// kernels' bits.
//
//go:noescape
func dotRowsAVX2(q, rows, out *float64, dim, n int)

//go:noescape
func squaredL2RowsAVX2(q, rows, out *float64, dim, n int)
