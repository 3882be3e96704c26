package index

// Regression tests for the PR that rebuilt the read path: flattened vector
// storage, bounded top-k selection, pooled search scratch, and context
// cancellation. The equivalence tests pin the optimized scan to the naive
// reference it replaced (per-candidate Metric.Distance, full sort) down to
// the distance bits, including on exact ties; the allocation tests pin the
// "zero/near-zero allocs per search" property so a future change cannot
// quietly reintroduce per-candidate garbage.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"modellake/internal/raceflag"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// referenceSearch is the pre-optimization Flat.Search, kept as the oracle:
// distance per candidate on a standalone vector, full sort with the
// (distance, ID) total order, truncate.
func referenceSearch(m Metric, ids []string, vecs []tensor.Vector, q tensor.Vector, k int) []Result {
	out := make([]Result, len(ids))
	for i := range ids {
		out[i] = Result{ID: ids[i], Distance: m.Distance(q, vecs[i])}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID < out[j].ID
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

func randomVecs(t *testing.T, n, dim int, seed uint64) []tensor.Vector {
	t.Helper()
	rng := xrand.New(seed)
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	return vecs
}

// TestFlatMatchesReferenceProperty drives the bounded-top-k scan against the
// full-sort oracle across metrics, sizes, and k values, requiring bitwise
// identity: same IDs, same order, same distance bits.
func TestFlatMatchesReferenceProperty(t *testing.T) {
	for _, metric := range []Metric{Cosine, L2} {
		for _, n := range []int{1, 2, 7, 100, 500} {
			vecs := randomVecs(t, n, 16, uint64(n)*3+uint64(metric))
			ids := make([]string, n)
			f := NewFlat(metric)
			for i, v := range vecs {
				ids[i] = fmt.Sprintf("id%04d", i)
				if err := f.Add(ids[i], v); err != nil {
					t.Fatal(err)
				}
			}
			queries := randomVecs(t, 10, 16, uint64(n)+99)
			for _, k := range []int{1, 3, n, n + 5} {
				for qi, q := range queries {
					got, err := f.Search(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceSearch(metric, ids, vecs, q, k)
					if len(got) != len(want) {
						t.Fatalf("metric=%v n=%d k=%d q=%d: len %d != %d", metric, n, k, qi, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID ||
							math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
							t.Fatalf("metric=%v n=%d k=%d q=%d pos=%d: got %v want %v",
								metric, n, k, qi, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestFlatTieBreakMatchesReference forces exact distance ties (duplicate
// vectors under fresh IDs) and checks the heap's (distance, ID) order agrees
// with the reference sort — the case a careless top-k rewrite breaks first.
func TestFlatTieBreakMatchesReference(t *testing.T) {
	base := randomVecs(t, 4, 8, 11)
	var vecs []tensor.Vector
	var ids []string
	f := NewFlat(Cosine)
	// Five exact copies of each of four vectors: every distance appears five
	// times, so ordering inside each tie group is decided purely by ID.
	for copyN := 0; copyN < 5; copyN++ {
		for bi, b := range base {
			id := fmt.Sprintf("m%d-%d", bi, copyN)
			ids = append(ids, id)
			vecs = append(vecs, b.Clone())
			if err := f.Add(id, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := randomVecs(t, 1, 8, 17)[0]
	for _, k := range []int{1, 4, 7, 10, 20} {
		got, err := f.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSearch(Cosine, ids, vecs, q, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: len %d != %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d pos=%d: got %v want %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestMetricDistanceZeroAlloc pins the kernel-backed metrics at zero heap
// allocations per call.
func TestMetricDistanceZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; bounds only hold in normal builds")
	}
	v := randomVecs(t, 2, 64, 5)
	for _, m := range []Metric{Cosine, L2} {
		if n := testing.AllocsPerRun(100, func() {
			_ = m.Distance(v[0], v[1])
		}); n != 0 {
			t.Fatalf("metric %v: %v allocs/op, want 0", m, n)
		}
	}
}

// TestHNSWSearchAllocBounds pins the pooled HNSW read path: after warm-up a
// search allocates only the result slice plus the beam output. (The flat
// indexes' bound is a cell of the read-path matrix.)
func TestHNSWSearchAllocBounds(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; bounds only hold in normal builds")
	}
	vecs := randomVecs(t, 2000, 32, 23)
	hnsw := NewHNSW(Cosine, HNSWConfig{Seed: 1})
	for i, v := range vecs {
		if err := hnsw.Add(fmt.Sprintf("m%05d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	q := randomVecs(t, 1, 32, 31)[0]
	ctx := context.Background()
	// Warm-up settles the sync.Pool scratch.
	for i := 0; i < 4; i++ {
		if _, err := hnsw.Search(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := hnsw.Search(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("HNSW.Search: %v allocs/op, want <= 4", n)
	}
}

// TestSearchCanceledContext verifies both index kinds abort on an
// already-canceled context and surface context.Canceled.
func TestSearchCanceledContext(t *testing.T) {
	vecs := randomVecs(t, 3000, 8, 41)
	flat := NewFlat(Cosine)
	hnsw := NewHNSW(Cosine, HNSWConfig{Seed: 2})
	for i, v := range vecs {
		id := fmt.Sprintf("m%05d", i)
		if err := flat.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := hnsw.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := vecs[0]
	if _, err := flat.Search(ctx, q, 5); err != context.Canceled {
		t.Fatalf("Flat.Search err = %v, want context.Canceled", err)
	}
	if _, err := hnsw.Search(ctx, q, 5); err != context.Canceled {
		t.Fatalf("HNSW.Search err = %v, want context.Canceled", err)
	}
	// A nil-cancellation context still works.
	if _, err := flat.Search(context.Background(), q, 5); err != nil {
		t.Fatal(err)
	}
}

// TestTopKSelectorMatchesSortWithTies exercises the internal bounded
// selector directly against a full sort over adversarial inputs with many
// duplicate distances.
func TestTopKSelectorMatchesSortWithTies(t *testing.T) {
	rng := xrand.New(7)
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%03d", i)
	}
	for trial := 0; trial < 50; trial++ {
		dists := make([]float64, len(ids))
		for i := range dists {
			// Quantize hard so ties are common.
			dists[i] = float64(int(rng.Float64()*8)) / 8
		}
		k := 1 + int(rng.Float64()*20)
		var tk topK
		tk.reset(k, ids)
		for i, d := range dists {
			tk.offer(candidate{idx: i, dist: d})
		}
		got := tk.extractAscending()
		want := make([]candidate, len(dists))
		for i, d := range dists {
			want[i] = candidate{idx: i, dist: d}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].dist != want[j].dist {
				return want[i].dist < want[j].dist
			}
			return ids[want[i].idx] < ids[want[j].idx]
		})
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: got %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
