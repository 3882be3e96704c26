package index

// The read-path matrix: one suite over the two axes of the flat core —
// ranking tier {none, int8, PQ} × row source {RAM, segment, segment + tail} —
// and both metrics. Every cell runs the same checks against the full-sort
// reference: bitwise equality (IDs, order, distance bits, exact ties), k
// clamping, the exact scan's block edges (the one-vs-many kernel takes whole
// blocks of RAM rows, the per-row path the rest), the whole-index-shortlist
// degenerate case, cancellation, recall (factor 1 provably misses on
// adversarial rows, the default factor recovers), parallel rescore = serial,
// the allocation bound, and Vector — every id's stored row read back bit for
// bit, from the segment, the tail and across spills.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"modellake/internal/raceflag"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

func assertBitwiseEqual(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s pos=%d: got %v want %v", label, i, got[i], want[i])
		}
	}
}

// heavyTailVecs returns vectors engineered to hurt per-row affine int8
// quantization: one coordinate per row is inflated ~200x, so the quant grid
// step is dominated by the outlier and the remaining coordinates collapse
// into a handful of codes. Neighbors that differ only in small coordinates
// become indistinguishable to the approximate phase.
func heavyTailVecs(t *testing.T, n, dim int, seed uint64) []tensor.Vector {
	t.Helper()
	rng := xrand.New(seed)
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		v[rng.Intn(dim)] *= 200
		vecs[i] = v
	}
	return vecs
}

// clusterClumpVecs returns vectors engineered to hurt product quantization:
// rows bunch into tight clusters whose within-cluster offsets live in
// coordinates the coarse subspace codebooks cannot resolve. With few, wide
// subspaces the 256 centroids per subspace are spent separating clusters,
// so near-neighbors inside one cluster collapse onto the same codes and the
// ADC phase cannot order them.
func clusterClumpVecs(t *testing.T, n, dim int, seed uint64) []tensor.Vector {
	t.Helper()
	rng := xrand.New(seed)
	const clusters = 8
	centers := make([]tensor.Vector, clusters)
	for c := range centers {
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 10
		}
		centers[c] = v
	}
	vecs := make([]tensor.Vector, n)
	for i := range vecs {
		v := centers[rng.Intn(clusters)].Clone()
		for j := range v {
			v[j] += rng.NormFloat64() * 1e-3
		}
		vecs[i] = v
	}
	return vecs
}

const (
	tierNone = "none"
	tierInt8 = "int8"
	tierPQ   = "pq"

	rowsRAM     = "ram"
	rowsSegment = "segment"
	rowsTail    = "segment+tail"
)

type matrixCell struct {
	tier, rows string
	metric     Metric
}

func (c matrixCell) String() string { return fmt.Sprintf("%s/%s/metric=%d", c.tier, c.rows, c.metric) }

func seqIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	return ids
}

// stages builds the cell's index over ids/vecs and hands fn every state of it
// worth checking, with the number of rows it holds: a RAM index once, full; a
// segment freshly built and again reopened; a segment + tail after reopening
// a segment of the first three quarters and adding the rest (an empty
// segment when that prefix is empty). cfg.PQSubspaces is cleared outside the
// PQ tier; the "none" tier over a segment is a disk index with its ranking
// tier removed — no constructor offers that corner, the core does.
func (c matrixCell) stages(t *testing.T, cfg QuantConfig, ids []string, vecs []tensor.Vector, fn func(stage string, idx Index)) {
	t.Helper()
	if c.tier != tierPQ {
		cfg.PQSubspaces = 0
	}
	add := func(idx Index, lo int) {
		t.Helper()
		for i := lo; i < len(ids); i++ {
			if err := idx.Add(ids[i], vecs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.rows == rowsRAM {
		var idx *Flat
		switch c.tier {
		case tierNone:
			idx = NewFlat(c.metric)
		case tierInt8:
			idx = NewFlatQuantized(c.metric, cfg)
		case tierPQ:
			idx = NewFlatPQ(c.metric, cfg)
		}
		add(idx, 0)
		fn("ram", idx)
		return
	}
	built := len(ids)
	if c.rows == rowsTail {
		built = len(ids) * 3 / 4
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, c.metric, cfg, ids[:built], vecs[:built])
	untier := func() {
		if c.tier == tierNone {
			d.tier = nil
		}
	}
	untier()
	if c.rows == rowsSegment {
		fn("built", d)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskFlat(path, nil, c.metric, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	untier()
	add(d, built)
	fn("reopened", d)
}

func coreOf(idx Index) *core {
	if f, ok := idx.(*Flat); ok {
		return &f.core
	}
	return &idx.(*DiskFlat).core
}

func TestReadPathMatrix(t *testing.T) {
	for _, tier := range []string{tierNone, tierInt8, tierPQ} {
		for _, rows := range []string{rowsRAM, rowsSegment, rowsTail} {
			for _, metric := range []Metric{L2, Cosine} {
				c := matrixCell{tier, rows, metric}
				t.Run(c.String(), func(t *testing.T) {
					t.Run("reference", c.testReference)
					t.Run("blocks", c.testBlockEdges)
					t.Run("ties", c.testTies)
					t.Run("degenerate", c.testDegenerateShortlist)
					t.Run("cancel", c.testCancelled)
					t.Run("recall", c.testRecall)
					t.Run("parallel", c.testParallelRescore)
					t.Run("allocs", c.testAllocs)
					t.Run("vector", c.testVector)
				})
			}
		}
	}
}

// testReference pins the cell to the full-sort oracle across sizes (the
// empty index included), rescore factors and k values — k ≤ 0 and k > n
// among them. In RAM the PQ codebook trains on the whole population, the
// shape a built segment has, which is what makes identity hold even at
// factor 4; tail rows are coded against a codebook that never saw them, so a
// segment + tail is held to the default factor only.
func (c matrixCell) testReference(t *testing.T) {
	const dim = 16
	factors := []int{4, DefaultRescoreFactor}
	if c.rows == rowsTail {
		factors = factors[1:]
	}
	for _, factor := range factors {
		for _, n := range []int{0, 1, 7, 100, 500} {
			vecs := randomVecs(t, n, dim, uint64(n)*13+uint64(c.metric)+uint64(factor))
			ids := seqIDs(n)
			cfg := QuantConfig{RescoreFactor: factor, PQSubspaces: 8, PQTrainRows: 32, Seed: uint64(n) + 5}
			if c.rows == rowsRAM {
				cfg.PQTrainRows = n
			}
			queries := randomVecs(t, 6, dim, uint64(n)+977)
			c.stages(t, cfg, ids, vecs, func(stage string, idx Index) {
				if idx.Len() != n {
					t.Fatalf("%s n=%d: Len = %d", stage, n, idx.Len())
				}
				for _, k := range []int{-1, 0, 1, 3, 20, n, n + 5} {
					for qi, q := range queries {
						got, err := idx.Search(context.Background(), q, k)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("%s factor=%d n=%d k=%d q=%d", stage, factor, n, k, qi)
						if n > 0 && got == nil {
							t.Fatalf("%s: nil result from a populated index", label)
						}
						assertBitwiseEqual(t, label, got, referenceSearch(c.metric, ids, vecs, q, max(k, 0)))
					}
				}
			})
		}
	}
}

// testBlockEdges pins the exact scan where its ctxCheckInterval blocks begin
// and end. In RAM every block goes through one tensor.DotRows/SquaredL2Rows
// call, the last one short; over a segment + tail the segment ends inside a
// block (three quarters of n is never a multiple of 1024 here), so that block
// and every one before it score row by row and only the blocks past it take
// the kernel. dim 16 reaches the assembly, dim 10 its Go fallback.
func (c matrixCell) testBlockEdges(t *testing.T) {
	if c.tier != tierNone {
		t.Skip("a ranked search at k = n is this same exact scan")
	}
	for _, dim := range []int{16, 10} {
		for _, n := range []int{ctxCheckInterval - 1, ctxCheckInterval, ctxCheckInterval + 1, 2500} {
			vecs := randomVecs(t, n, dim, uint64(n+dim))
			ids := seqIDs(n)
			queries := randomVecs(t, 3, dim, uint64(n)+31)
			c.stages(t, QuantConfig{}, ids, vecs, func(stage string, idx Index) {
				for _, k := range []int{1, 10, n} {
					for qi, q := range queries {
						got, err := idx.Search(context.Background(), q, k)
						if err != nil {
							t.Fatal(err)
						}
						assertBitwiseEqual(t, fmt.Sprintf("%s dim=%d n=%d k=%d q=%d", stage, dim, n, k, qi),
							got, referenceSearch(c.metric, ids, vecs, q, k))
					}
				}
			})
		}
	}
}

// testTies forces exact distance ties (duplicate vectors under fresh IDs).
// Identical rows get identical tier codes, so ties survive the approximate
// phase and the exact rescore must resolve them by ID exactly like the
// reference sort does.
func (c matrixCell) testTies(t *testing.T) {
	base := randomVecs(t, 4, 8, 19)
	var vecs []tensor.Vector
	var ids []string
	for copyN := 0; copyN < 5; copyN++ {
		for bi, b := range base {
			ids = append(ids, fmt.Sprintf("m%d-%d", bi, copyN))
			vecs = append(vecs, b.Clone())
		}
	}
	q := randomVecs(t, 1, 8, 23)[0]
	c.stages(t, QuantConfig{PQSubspaces: 8, PQTrainRows: 8}, ids, vecs, func(stage string, idx Index) {
		for _, k := range []int{1, 4, 7, 10, 20} {
			got, err := idx.Search(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwiseEqual(t, fmt.Sprintf("%s k=%d", stage, k), got, referenceSearch(c.metric, ids, vecs, q, k))
		}
	})
}

// testDegenerateShortlist reads the two phases off the counters: while
// k·factor stays below the population a ready tier scans n rows and rescores
// the shortlist; once the shortlist would cover the index — or with no tier
// at all — the search is the plain exact scan over n rows, reported by a RAM
// index under the plain flat kind.
func (c matrixCell) testDegenerateShortlist(t *testing.T) {
	const n, dim, factor = 200, 16, 8
	vecs := randomVecs(t, n, dim, 71)
	ids := seqIDs(n)
	q := randomVecs(t, 1, dim, 73)[0]
	cfg := QuantConfig{RescoreFactor: factor, PQSubspaces: 8, PQTrainRows: 32, Seed: 9}
	c.stages(t, cfg, ids, vecs, func(stage string, idx Index) {
		co := coreOf(idx)
		for _, k := range []int{1, n/factor - 1, n / factor, n} {
			twoPhase := c.tier != tierNone && k*factor < n
			kind, scanned := co.exact, uint64(n)
			if twoPhase {
				kind, scanned = co.ranked, uint64(n+k*factor)
			}
			searches, cands := kind.searches.Value(), kind.candidates.Value()
			got, err := idx.Search(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s k=%d", stage, k)
			if ds, dc := kind.searches.Value()-searches, kind.candidates.Value()-cands; ds != 1 || dc != scanned {
				t.Fatalf("%s (two-phase=%v): %d searches scanning %d candidates, want 1 scanning %d", label, twoPhase, ds, dc, scanned)
			}
			if !twoPhase { // identity is unconditional, not recall-dependent
				assertBitwiseEqual(t, label, got, referenceSearch(c.metric, ids, vecs, q, k))
			}
		}
	})
}

// testCancelled requires an already-cancelled context to stop the search in
// either phase: inside the tier scan (small k) and inside the exact scan
// (k = n, no shortlist).
func (c matrixCell) testCancelled(t *testing.T) {
	const n, dim = 3000, 8
	vecs := randomVecs(t, n, dim, 41)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.stages(t, QuantConfig{PQSubspaces: 8}, seqIDs(n), vecs, func(stage string, idx Index) {
		for _, k := range []int{5, n} {
			if _, err := idx.Search(ctx, vecs[0], k); err != context.Canceled {
				t.Fatalf("%s k=%d: err = %v, want context.Canceled", stage, k, err)
			}
		}
		if _, err := idx.Search(context.Background(), vecs[0], 5); err != nil {
			t.Fatal(err)
		}
	})
}

// testRecall is the recall safety net of a ranking tier. On rows built to
// defeat it — heavy tails for int8, tight clumps for PQ — a shortlist of
// exactly k (RescoreFactor 1) provably misses part of the true top-k; at
// least one such miss is required, proving the construction has teeth, while
// the default over-fetch must return bitwise-exact results on the very same
// rows and queries.
func (c matrixCell) testRecall(t *testing.T) {
	if c.tier == tierNone {
		t.Skip("no ranking tier, no shortlist to miss from")
	}
	const n, k, attempts = 400, 10, 50
	for seed := uint64(1); seed <= attempts; seed++ {
		dim, vecs := 8, heavyTailVecs(t, n, 8, seed)
		if c.tier == tierPQ {
			dim, vecs = 32, clusterClumpVecs(t, n, 32, seed)
		}
		ids := seqIDs(n)
		queries := randomVecs(t, 10, dim, seed+7777)
		cfg := QuantConfig{PQSubspaces: 2, PQTrainRows: 64, Seed: seed}
		c.stages(t, cfg, ids, vecs, func(stage string, idx Index) {
			for qi, q := range queries {
				got, err := idx.Search(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertBitwiseEqual(t, fmt.Sprintf("%s seed=%d q=%d (default factor)", stage, seed, qi),
					got, referenceSearch(c.metric, ids, vecs, q, k))
			}
		})
		missed := false
		cfg.RescoreFactor = 1
		c.stages(t, cfg, ids, vecs, func(stage string, idx Index) {
			for _, q := range queries {
				got, err := idx.Search(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range referenceSearch(c.metric, ids, vecs, q, k) {
					missed = missed || got[i].ID != want.ID
				}
			}
		})
		if missed {
			return
		}
	}
	t.Fatalf("no recall miss at RescoreFactor=1 in %d adversarial lakes; construction lost its teeth", attempts)
}

// testParallelRescore forces the parallel exact-rescore at tiny shortlists
// and requires bitwise-identical results at every worker count — the
// disjoint-write + serial-offer discipline is what keeps the identity
// guarantee intact above the parallelism threshold. Only in-RAM rows fan
// out; a segment cell pins that its preads stay serial and unchanged.
func (c matrixCell) testParallelRescore(t *testing.T) {
	if c.tier == tierNone {
		t.Skip("no ranking tier, no shortlist to rescore")
	}
	oldThresh, oldWorkers := rescoreParallelThreshold, rescoreMaxWorkers
	defer func() { rescoreParallelThreshold, rescoreMaxWorkers = oldThresh, oldWorkers }()

	const n, dim, k = 700, 16, 9
	vecs := randomVecs(t, n, dim, 321)
	queries := randomVecs(t, 6, dim, 654)
	cfg := QuantConfig{PQSubspaces: 4, PQTrainRows: 64, Seed: 3}
	c.stages(t, cfg, seqIDs(n), vecs, func(stage string, idx Index) {
		rescoreParallelThreshold, rescoreMaxWorkers = 1<<30, 1 // serial baseline
		want := make([][]Result, len(queries))
		for qi, q := range queries {
			res, err := idx.Search(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			want[qi] = res
		}
		rescoreParallelThreshold = 1 // every shortlist takes the parallel path
		for _, workers := range []int{2, 3, 5, 8} {
			rescoreMaxWorkers = workers
			for qi, q := range queries {
				got, err := idx.Search(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertBitwiseEqual(t, fmt.Sprintf("%s workers=%d q=%d", stage, workers, qi), got, want[qi])
			}
		}
	})
}

// testAllocs pins the pooled read path: after warm-up a search allocates
// only the result slice, whatever the tier and wherever the rows live. The
// bound is deliberately tight — doubling it is the signal the property has
// been lost.
func (c matrixCell) testAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; bounds only hold in normal builds")
	}
	const n, dim = 2000, 32
	vecs := randomVecs(t, n, dim, 61)
	q := randomVecs(t, 1, dim, 67)[0]
	ctx := context.Background()
	c.stages(t, QuantConfig{PQSubspaces: DefaultPQSubspaces}, seqIDs(n), vecs, func(stage string, idx Index) {
		for i := 0; i < 5; i++ { // warm the scratch pool
			if _, err := idx.Search(ctx, q, 10); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(100, func() {
			if _, err := idx.Search(ctx, q, 10); err != nil {
				t.Fatal(err)
			}
		}); a > 2 {
			t.Fatalf("%s: %v allocs/op, want <= 2", stage, a)
		}
	})
}

func assertVector(t *testing.T, label string, co *core, id string, want tensor.Vector) {
	t.Helper()
	got, ok, err := co.Vector(id)
	if err != nil || !ok {
		t.Fatalf("%s: Vector(%s) = ok %v, err %v", label, id, ok, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Vector(%s) has dim %d, want %d", label, id, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: Vector(%s)[%d] = %v, added %v", label, id, j, got[j], want[j])
		}
	}
}

// testVector reads every id's row back through Vector and requires the bits
// that were added, wherever the row lives: RAM, a built or reopened segment,
// the tail, and — with a spill threshold the tail crosses several times —
// rows that moved from tail to segment. An unknown id is a miss, not an
// error; the returned row is the call's one allocation and the caller's to
// mutate; a closed index reports it is closed.
func (c matrixCell) testVector(t *testing.T) {
	const dim = 16
	for _, n := range []int{0, 7, 500} {
		vecs := randomVecs(t, n, dim, uint64(n)*17+uint64(c.metric))
		ids := seqIDs(n)
		// 125 tail rows over a 40-row threshold: three spills, five rows left.
		cfg := QuantConfig{PQSubspaces: 8, PQTrainRows: 32, Seed: 7, SpillTailRows: 40}
		c.stages(t, cfg, ids, vecs, func(stage string, idx Index) {
			co := coreOf(idx)
			label := fmt.Sprintf("%s n=%d", stage, n)
			if c.rows == rowsTail && n == 500 && (co.segN != 495 || len(co.rows) != 5*dim) {
				t.Fatalf("%s: %d segment rows + %d tail floats, want 495 + %d", label, co.segN, len(co.rows), 5*dim)
			}
			for i, id := range ids {
				assertVector(t, label, co, id, vecs[i])
			}
			if v, ok, err := co.Vector("no-such-id"); v != nil || ok || err != nil {
				t.Fatalf("%s: unknown id = (%v, %v, %v), want (nil, false, nil)", label, v, ok, err)
			}
			if n == 0 {
				return
			}
			v, _, _ := co.Vector(ids[0])
			v[0]++ // the caller's copy: the index must not see this
			assertVector(t, label+" after mutating a returned row", co, ids[0], vecs[0])
			if !raceflag.Enabled {
				if a := testing.AllocsPerRun(100, func() { co.Vector(ids[n-1]) }); a != 1 {
					t.Fatalf("%s: Vector allocates %v per call, want 1", label, a)
				}
			}
			if d, ok := idx.(*DiskFlat); ok && stage == "reopened" {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := co.Vector(ids[0]); !errors.Is(err, errClosed) {
					t.Fatalf("%s: Vector after Close: err = %v, want %v", label, err, errClosed)
				}
			}
		})
	}
}

// TestVectorRacesSpill reads rows back while a writer pushes the tail over a
// small spill threshold again and again: the reader must get the added bits
// from wherever the row is at that moment — tail before the spill, segment
// after — and never a row resolved against the other layout. Run under -race.
func TestVectorRacesSpill(t *testing.T) {
	const n, dim = 300, 8
	vecs := randomVecs(t, n, dim, 91)
	ids := seqIDs(n)
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, Cosine, QuantConfig{SpillTailRows: 8}, ids[:4], vecs[:4])
	defer d.Close()

	var added atomic.Int64 // ids[:added] are indexed
	added.Store(4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; added.Load() < n; i++ {
			j := i % int(added.Load())
			got, ok, err := d.Vector(ids[j])
			if err != nil || !ok {
				t.Errorf("Vector(%s) = ok %v, err %v", ids[j], ok, err)
				return
			}
			for x := range got {
				if math.Float64bits(got[x]) != math.Float64bits(vecs[j][x]) {
					t.Errorf("Vector(%s)[%d] = %v, added %v", ids[j], x, got[x], vecs[j][x])
					return
				}
			}
		}
	}()
	for i := 4; i < n; i++ {
		if err := d.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
		added.Store(int64(i + 1))
	}
	wg.Wait()
	if d.SegmentLen() < n-8 {
		t.Fatalf("segment holds %d of %d rows: the tail never spilled", d.SegmentLen(), n)
	}
	for i, id := range ids {
		assertVector(t, "after the writer", &d.core, id, vecs[i])
	}
}
