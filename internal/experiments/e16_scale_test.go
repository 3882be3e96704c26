package experiments

import (
	"os"
	"strconv"
	"testing"
	"time"
)

// TestE16Shape runs the atlas-scale benchmark at toy sizes and pins its
// acceptance properties: every measured path answers bitwise-identically to
// the exact flat scan, the disk tier reports a real open latency and
// segment size, and the streamed lake round-trips through close/reopen
// with a working search path.
func TestE16Shape(t *testing.T) {
	tab, res, err := RunE16Scale(testSeed(), []int{300}, 30, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // exact, quant, pq, disk, stream
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.IdenticalTopK {
			t.Fatalf("path %s diverged from the exact scan: %+v", p.Kind, p)
		}
		if p.QPS <= 0 || p.P50Ns <= 0 || p.P99Ns < p.P50Ns {
			t.Fatalf("path %s reported implausible timings: %+v", p.Kind, p)
		}
		if p.PeakHeapBytes == 0 {
			t.Fatalf("path %s missing peak heap sample: %+v", p.Kind, p)
		}
		if (p.Kind == "quant" || p.Kind == "pq") && p.TierBytes <= 0 {
			t.Fatalf("path %s missing resident tier bytes: %+v", p.Kind, p)
		}
		if p.Kind == "disk" && (p.OpenNs <= 0 || p.SegmentBytes <= 0) {
			t.Fatalf("disk path missing open/segment stats: %+v", p)
		}
	}
	st := res.Stream
	if st.Models != 120 || st.ModelsPerSec <= 0 {
		t.Fatalf("stream arm implausible: %+v", st)
	}
	if st.PeakHeapBytes == 0 || !st.Under2GB {
		t.Fatalf("toy stream should trivially sit under 2GB: %+v", st)
	}
	if st.ReopenNs <= 0 || st.SearchQPS <= 0 || st.ReopenPeakHeapBytes == 0 {
		t.Fatalf("stream reopen/search did not run: %+v", st)
	}
	if st.KeywordQPS <= 0 {
		t.Fatalf("stream keyword search did not run: %+v", st)
	}
	if st.VectorHeapBytes <= 0 || st.PostingsHeapBytes <= 0 || st.KVHeapBytes <= 0 {
		t.Fatalf("tier breakdown missing: %+v", st)
	}
}

// TestScaleSmoke100k is the full-scale acceptance gate: 100k vectors per
// read path and a 100k-model lake built by streaming generation, required
// to stay under 2 GiB of peak heap. It takes minutes, so it only runs when
// MODELLAKE_SCALE_SMOKE is set (the CI bench job sets it; local runs
// opt in explicitly).
func TestScaleSmoke100k(t *testing.T) {
	if os.Getenv("MODELLAKE_SCALE_SMOKE") == "" {
		t.Skip("set MODELLAKE_SCALE_SMOKE=1 to run the 100k smoke test")
	}
	_, res, err := RunE16Scale(42, []int{100_000}, 50, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	var quantTier, pqTier int64
	var quantQPS, pqQPS float64
	for _, p := range res.Points {
		if !p.IdenticalTopK {
			t.Fatalf("path %s diverged at 100k: %+v", p.Kind, p)
		}
		switch p.Kind {
		case "quant":
			quantTier, quantQPS = p.TierBytes, p.QPS
		case "pq":
			pqTier, pqQPS = p.TierBytes, p.QPS
		}
	}
	// The PQ acceptance bars at 100k: the resident ranking tier must be at
	// least 4x smaller than the int8 tier, at no worse than half its QPS.
	if quantTier <= 0 || pqTier <= 0 {
		t.Fatalf("missing tier accounting: quant=%d pq=%d", quantTier, pqTier)
	}
	if pqTier*4 > quantTier {
		t.Fatalf("pq tier %d bytes not >=4x smaller than int8 tier %d bytes", pqTier, quantTier)
	}
	if pqQPS*2 < quantQPS {
		t.Fatalf("pq qps %.1f below half of int8 qps %.1f", pqQPS, quantQPS)
	}
	if res.Stream.Models != 100_000 {
		t.Fatalf("streamed %d models, want 100000", res.Stream.Models)
	}
	if !res.Stream.Under2GB {
		t.Fatalf("100k streamed lake peaked at %d bytes, over the 2 GiB bar", res.Stream.PeakHeapBytes)
	}
	// A restart may hold less than the load did, never a second copy of the
	// lake's vectors: they are read by reference, a window at a time.
	if p := res.Stream.ReopenPeakHeapBytes; p == 0 || p >= 2<<30 {
		t.Fatalf("reopening the 100k lake peaked at %d bytes", p)
	}
	// Related queries leave behind query-cache entries and nothing per model
	// queried: no weights, no second copy of the query vector. The bound is
	// the cache's own — 1024 entries of a 256-dim vector and a 17-hit list —
	// with 2x slack for allocator rounding.
	if g, bound := res.Stream.ServeHeapGrowthBytes, int64(2*1024*(8*256+17*24)); g > bound {
		t.Fatalf("related queries grew the heap by %d bytes, over the query cache's %d", g, bound)
	}
	t.Logf("stream arm: peak_heap_bytes=%d reopen_peak_heap_bytes=%d serve_heap_growth_bytes=%d kv_heap_bytes=%d kv_referenced_bytes=%d reopen=%s",
		res.Stream.PeakHeapBytes, res.Stream.ReopenPeakHeapBytes, res.Stream.ServeHeapGrowthBytes,
		res.Stream.KVHeapBytes, res.Stream.KVReferencedBytes, time.Duration(res.Stream.ReopenNs))
}

// TestScaleSmoke1M is the headline gate behind the "1M models in one box"
// claim: a million models streamed into a product-quantized disk-resident
// lake, required to stay under 6 GiB of peak heap with working search on
// reopen. At full size it takes tens of minutes and is strictly a local
// opt-in (MODELLAKE_SCALE_SMOKE_1M=1 go test -run TestScaleSmoke1M
// -timeout 2h ./internal/experiments); CI runs it at a reduced size via
// MODELLAKE_SCALE_SMOKE_1M_MODELS to keep the path exercised without the
// wall-clock bill.
func TestScaleSmoke1M(t *testing.T) {
	if os.Getenv("MODELLAKE_SCALE_SMOKE_1M") == "" {
		t.Skip("set MODELLAKE_SCALE_SMOKE_1M=1 to run the 1M streamed-lake smoke test")
	}
	models := 1_000_000
	if s := os.Getenv("MODELLAKE_SCALE_SMOKE_1M_MODELS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			models = v
		}
	}
	stream, err := measureStreamedLake(42, models)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Models != models {
		t.Fatalf("streamed %d models, want %d", stream.Models, models)
	}
	const bar = 6 << 30
	if stream.PeakHeapBytes >= bar {
		t.Fatalf("streamed lake peaked at %d bytes, over the 6 GiB bar", stream.PeakHeapBytes)
	}
	if stream.SearchQPS <= 0 || stream.KeywordQPS <= 0 {
		t.Fatalf("reopened lake not serving: %+v", stream)
	}
	t.Logf("models=%d peak_heap=%.0f MiB reopen=%s search_qps=%.1f keyword_qps=%.1f vec_tier=%.1f MiB",
		stream.Models, float64(stream.PeakHeapBytes)/(1<<20),
		time.Duration(stream.ReopenNs), stream.SearchQPS, stream.KeywordQPS,
		float64(stream.VectorHeapBytes)/(1<<20))
}
