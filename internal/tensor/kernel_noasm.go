//go:build !amd64 || purego

package tensor

// No assembly on this build: DotRows and SquaredL2Rows always take the Go
// loop over the single-pair kernels, and the compiler drops the calls below.
const hasAVX2 = false

func dotRowsAVX2(q, rows, out *float64, dim, n int)       { panic("tensor: no assembly kernel") }
func squaredL2RowsAVX2(q, rows, out *float64, dim, n int) { panic("tensor: no assembly kernel") }
