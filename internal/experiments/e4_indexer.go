package experiments

import (
	"context"
	"fmt"
	"time"

	"modellake/internal/index"
	"modellake/internal/obs"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// e4Sizes is the collection-size sweep of the full E4.
var e4Sizes = []int{1000, 5000, 20000, 50000}

// hnswVisits counts the nodes HNSW searches visit, process-wide.
var hnswVisits = obs.Default().Counter("ann_candidates_scanned_total", obs.L("kind", "hnsw"))

// RunE4 evaluates the indexer (§5): HNSW approximate search against the
// exact flat scan as the embedding collection grows — query latency, the
// nodes an HNSW query visits, build time, and recall@10. The paper's claim
// is that sublinear ANN search makes content-based model search scale; the
// shape to observe is flat latency growing linearly with n while HNSW's
// visits grow slowly, at recall ≥ 0.9.
func RunE4(seed uint64) (*Table, error) { return runE4(seed, e4Sizes, 20000) }

// runE4 is RunE4 over the given collection sizes, with the efSearch
// ablation at ablationN vectors.
func runE4(seed uint64, sizes []int, ablationN int) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "HNSW vs exact flat scan over model embeddings (dim=32, k=10)",
		Columns: []string{"n", "flat query", "hnsw query", "hnsw visits/query", "speedup",
			"hnsw build", "recall@10"},
		Notes: "expected shape: flat latency ~linear in n; HNSW visits (and latency) ~log; recall >= 0.9",
	}
	const dim, queries = 32, 30
	rng := xrand.New(seed)
	makeVecs := func(n int) []tensor.Vector {
		vs := make([]tensor.Vector, n)
		for i := range vs {
			vs[i] = make(tensor.Vector, dim)
			for j := range vs[i] {
				vs[i][j] = rng.NormFloat64()
			}
		}
		return vs
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	for _, n := range sizes {
		vecs, qs := makeVecs(n), makeVecs(queries)
		truth, flatPer, err := e4Exact(vecs, qs)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		hnsw, err := e4HNSW(vecs, seed, 80)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		hnswPer, visits, recall, err := e4Search(hnsw, qs, truth)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), us(flatPer), us(hnswPer), fmt.Sprint(visits),
			fmt.Sprintf("%.1fx", float64(flatPer)/float64(hnswPer)),
			build.Round(time.Millisecond).String(), f3(recall))
	}

	// Ablation: the efSearch recall/latency dial at a fixed collection size.
	// (The paper notes HNSW "provides no formal guarantees"; this is the
	// practical knob that trades accuracy for speed.)
	vecs, qs := makeVecs(ablationN), makeVecs(queries)
	truth, _, err := e4Exact(vecs, qs)
	if err != nil {
		return nil, err
	}
	for _, ef := range []int{16, 40, 80, 160} {
		hnsw, err := e4HNSW(vecs, seed, ef)
		if err != nil {
			return nil, err
		}
		per, visits, recall, err := e4Search(hnsw, qs, truth)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("ef=%d @%dk", ef, ablationN/1000), "-", us(per), fmt.Sprint(visits), "-", "-", f3(recall))
	}
	return t, nil
}

const e4K = 10

func e4ID(i int) string { return fmt.Sprintf("v%06d", i) }

// e4Exact answers every query with the exact flat scan: the true top-k sets
// and the mean query latency.
func e4Exact(vecs, qs []tensor.Vector) ([]map[string]bool, time.Duration, error) {
	flat := index.NewFlat(index.L2)
	for i, v := range vecs {
		if err := flat.Add(e4ID(i), v); err != nil {
			return nil, 0, err
		}
	}
	truth := make([]map[string]bool, len(qs))
	var elapsed time.Duration
	for qi, q := range qs {
		start := time.Now()
		exact, err := flat.Search(context.Background(), q, e4K)
		if err != nil {
			return nil, 0, err
		}
		elapsed += time.Since(start)
		truth[qi] = map[string]bool{}
		for _, r := range exact {
			truth[qi][r.ID] = true
		}
	}
	return truth, elapsed / time.Duration(len(qs)), nil
}

// e4HNSW builds the HNSW index E4 measures with efSearch ef.
func e4HNSW(vecs []tensor.Vector, seed uint64, ef int) (*index.HNSW, error) {
	h := index.NewHNSW(index.L2, index.HNSWConfig{M: 16, EfConstruction: 100, EfSearch: ef, Seed: seed})
	for i, v := range vecs {
		if err := h.Add(e4ID(i), v); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// e4Search answers every query with h: mean latency, mean nodes visited, and
// recall@k against truth.
func e4Search(h *index.HNSW, qs []tensor.Vector, truth []map[string]bool) (time.Duration, uint64, float64, error) {
	var elapsed time.Duration
	var visits uint64
	hits := 0
	for qi, q := range qs {
		start := time.Now()
		before := hnswVisits.Value()
		approx, err := h.Search(context.Background(), q, e4K)
		if err != nil {
			return 0, 0, 0, err
		}
		elapsed += time.Since(start)
		visits += hnswVisits.Value() - before
		for _, r := range approx {
			if truth[qi][r.ID] {
				hits++
			}
		}
	}
	n := len(qs)
	return elapsed / time.Duration(n), visits / uint64(n), float64(hits) / float64(e4K*n), nil
}
