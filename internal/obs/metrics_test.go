package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("route", "/a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) → same instance; different labels → different.
	if r.Counter("reqs_total", L("route", "/a")) != c {
		t.Fatal("get-or-create returned a different counter for identical labels")
	}
	if r.Counter("reqs_total", L("route", "/b")) == c {
		t.Fatal("distinct labels shared a counter")
	}

	g := r.Gauge("inflight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge after Set = %d, want 42", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

// TestHistogramBucketing pins the bucket-assignment rule: an observation
// lands in the first bucket whose upper bound is >= the value (Prometheus
// "le" semantics), values above every bound land in +Inf.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v, want 3 finite + +Inf", bounds)
	}
	// 0.005 and 0.01 are <= 0.01; 0.02 and 0.1 are <= 0.1; 0.5 and (not 2,
	// not 100) are <= 1; everything is <= +Inf.
	want := []uint64{2, 4, 5, 7}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.01+0.02+0.1+0.5+2+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if h.Count() != 8 {
		t.Fatalf("ObserveDuration did not record")
	}
}

// TestConcurrentIncrements hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this pins the lock-free hot path.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.5})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.25)
				// Concurrent get-or-create of the same series must race
				// cleanly too.
				r.Counter("c_total").Add(0)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	if got, want := h.Sum(), 0.25*workers*perWorker; math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, want)
	}
}

// TestPrometheusExposition is the golden test for the text format: families
// sorted by name, TYPE lines, label escaping, cumulative histogram buckets
// with le, _sum and _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_requests_total", L("route", "/v1/search"), L("class", "2xx")).Add(3)
	r.Gauge("c_inflight").Set(2)
	h := r.Histogram("a_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Gauge("d_cache_hits").Set(7)
	r.Counter("e_weird_total", L("q", `a"b\c`)).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE a_latency_seconds histogram",
		`a_latency_seconds_bucket{le="0.1"} 1`,
		`a_latency_seconds_bucket{le="1"} 2`,
		`a_latency_seconds_bucket{le="+Inf"} 3`,
		"a_latency_seconds_sum 5.55",
		"a_latency_seconds_count 3",
		"# TYPE b_requests_total counter",
		`b_requests_total{class="2xx",route="/v1/search"} 3`,
		"# TYPE c_inflight gauge",
		"c_inflight 2",
		"# TYPE d_cache_hits gauge",
		"d_cache_hits 7",
		"# TYPE e_weird_total counter",
		`e_weird_total{q="a\"b\\c"} 1`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", L("op", "put")).Add(9)
	h := r.Histogram("lat_seconds", []float64{1})
	h.Observe(0.5)
	r.Gauge("depth").Set(3)

	snap := r.Snapshot()
	byName := map[string]MetricSnapshot{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if s := byName["ops_total"]; s.Value != 9 || s.Type != "counter" || s.Labels != `{op="put"}` {
		t.Fatalf("ops_total snapshot = %+v", s)
	}
	if s := byName["depth"]; s.Value != 3 || s.Type != "gauge" {
		t.Fatalf("depth snapshot = %+v", s)
	}
	s := byName["lat_seconds"]
	if s.Count != 1 || s.Sum != 0.5 || len(s.Buckets) != 2 {
		t.Fatalf("lat_seconds snapshot = %+v", s)
	}
	if s.Buckets[0].Count != 1 || s.Buckets[1].LE != "+Inf" {
		t.Fatalf("lat_seconds buckets = %+v", s.Buckets)
	}
}
