//go:build !race

// Package raceflag reports whether the race detector instruments this build.
// Allocation-bound tests skip when it does: instrumentation adds its own
// allocations, so the bounds only hold in normal builds.
package raceflag

const Enabled = false
