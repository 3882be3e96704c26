package index

// Tests for the product-quantized tier beyond its cells of the read-path
// matrix (matrix_test.go): codebook training must be bitwise deterministic in
// (seed, input) at any worker count.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"modellake/internal/xrand"
)

// TestPQTrainingDeterministic pins the parallel-training contract: the same
// (seed, sample) trains byte-identical codebooks at any worker count and any
// GOMAXPROCS setting. This is what lets a spilled segment reuse a tier
// trained earlier and lets two machines rebuild identical side files.
func TestPQTrainingDeterministic(t *testing.T) {
	const nSample, dim, m = 600, 24, 6
	rng := xrand.New(42)
	sample := make([]float64, nSample*dim)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	ref := trainPQCodebook(sample, nSample, dim, m, 99, 1)
	check := func(label string, cb *pqCodebook) {
		t.Helper()
		if len(cb.cents) != len(ref.cents) {
			t.Fatalf("%s: cents len %d != %d", label, len(cb.cents), len(ref.cents))
		}
		for i := range cb.cents {
			if math.Float64bits(cb.cents[i]) != math.Float64bits(ref.cents[i]) {
				t.Fatalf("%s: centroid float %d differs: %x != %x",
					label, i, math.Float64bits(cb.cents[i]), math.Float64bits(ref.cents[i]))
			}
		}
	}
	for _, workers := range []int{2, 3, 8, 0} {
		check(fmt.Sprintf("workers=%d", workers),
			trainPQCodebook(sample, nSample, dim, m, 99, workers))
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	check("GOMAXPROCS=1", trainPQCodebook(sample, nSample, dim, m, 99, 0))
}

func BenchmarkFlatPQSearch10k(b *testing.B) {
	pq := NewFlatPQ(L2, QuantConfig{PQTrainRows: 10000})
	for i, v := range randomVectors(10000, 32, 1) {
		pq.Add(fmt.Sprintf("v%d", i), v)
	}
	q := randomVectors(1, 32, 2)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Search(context.Background(), q, 10); err != nil {
			b.Fatal(err)
		}
	}
}
