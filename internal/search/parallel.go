package search

import "runtime"

// normalizeParallelism clamps a worker count to [1, GOMAXPROCS] when it is
// unset (<= 0); explicit positive values are honored as given so tests can
// oversubscribe deliberately.
func normalizeParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}
