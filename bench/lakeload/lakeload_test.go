package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"modellake/internal/lake"
)

// toyScale keeps all four workloads together under ten seconds.
var toyScale = scale{models: 320, hot: 32, warmup: 100, mlqlQueries: 4,
	verifyPerClass: 24, verifyMLQL: 3, tracePerClass: 20, traceMLQL: 3,
	pacedBatch: 8, pacedPeriod: 125 * time.Millisecond, bulkBatch: 16, bulkModels: 64,
	traceBatches: 2, sideQueries: 20, setups: 1}

func toyRun(t *testing.T, workload string, seed uint64, trace, corrupt bool) *report {
	t.Helper()
	// obs's CounterFuncs pin the most recently opened lake. A run is one
	// process; here several share one, so hand obs an empty lake to pin, or
	// the previous run's lake is freed between this run's two heap readings.
	if l, err := lake.Open(lake.Config{}); err == nil {
		l.Close()
	}
	rep, err := run(context.Background(), options{workload: workload, seed: seed, mix: time.Second,
		trace: trace, scale: toyScale, log: io.Discard, traceDir: t.TempDir(), corruptReference: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestWorkloadsReportEveryMetric runs all four workloads at toy scale and
// checks every name BENCHMARK.json promises is there, finite and — where the
// workload's path goes through that layer — not zero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	nonZero := map[string][]string{
		"read_flat_4k": {"index.flat.candidates_per_search", "lake.related.p50_ms", "search.vector.p50_ms",
			"index.hnsw.recall_at_10", "index.int8.search_p50_ms", "tensor.dot_scan.ns_per_row", "mlql.candidates.p50_ms"},
		"read_pqdisk_4k":  {"index.pq.lut_builds_per_search", "index.segment_open_ms", "index.tier_bytes_per_row", "search.keyword.blocks_scanned_per_query"},
		"read_cluster_4k": {"cluster.related.p50_ms", "cluster.keyword.p50_ms", "cluster.mlql.p50_ms"},
		"write_pqdisk_4k": {"loadgen.ingest_batch.p50_all_ms", "loadgen.ingest_models_per_s", "loadgen.fsyncs_per_model",
			"kvstore.fsyncs_per_model", "blob.bytes_per_model", "server.ingest_batch.self_p50_ms"},
	}
	zero := map[string][]string{
		"read_flat_4k":   {"kvstore.appends_per_model", "blob.puts_per_model", "index.pq.lut_builds_per_search"},
		"read_pqdisk_4k": {"index.flat.candidates_per_search", "kvstore.appends_per_model", "blob.puts_per_model"},
	}
	for _, wl := range workloads {
		rep := toyRun(t, wl.Name, 7, true, false)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", wl.Name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
		}
		e2e, err := rep.Metrics.pick(endToEnd, false)
		if err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		for _, d := range endToEnd {
			if v := e2e[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %v %q, want a positive number of %s", wl.Name, d.Name, v.Value, v.Unit, d.Unit)
			}
		}
		layers, err := rep.Metrics.pick(perLayer, true)
		if err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		if len(layers) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wl.Name, len(layers), len(perLayer))
		}
		for _, name := range nonZero[wl.Name] {
			if rep.Metrics[name] == 0 {
				t.Errorf("%s: %s is 0 on a workload whose path goes through it", wl.Name, name)
			}
		}
		for _, name := range zero[wl.Name] {
			if rep.Metrics[name] != 0 {
				t.Errorf("%s: %s = %v on a workload that bypasses it", wl.Name, name, rep.Metrics[name])
			}
		}
		if exact := rep.Metrics["loadgen.exact_match_frac"]; (exact != 1 && wl.recallFloor == 0) || rep.Metrics["loadgen.recall_at_10"] < wl.recallFloor || rep.Metrics["loadgen.failed_frac"] != 0 {
			t.Errorf("%s: exact_match_frac=%v recall_at_10=%v failed_frac=%v", wl.Name, exact, rep.Metrics["loadgen.recall_at_10"], rep.Metrics["loadgen.failed_frac"])
		}
	}
}

func TestCorruptReferenceIsNoticed(t *testing.T) {
	rep := toyRun(t, "read_flat_4k", 7, false, true)
	if rep.Correct || rep.Metrics["loadgen.exact_match_frac"] >= 1 {
		t.Fatalf("corrupted reference answer went unnoticed: correct=%v exact_match_frac=%v", rep.Correct, rep.Metrics["loadgen.exact_match_frac"])
	}
}

// TestRecallMissAcceptsOnlyShortlistMisses pins what a PQ-shortlisted answer
// may differ in: a true neighbour replaced by a worse one, nothing else.
func TestRecallMissAcceptsOnlyShortlistMisses(t *testing.T) {
	want := []scoredHit{{"a", -0.1}, {"b", -0.2}, {"c", -0.3}}
	for _, tc := range []struct {
		name  string
		got   []scoredHit
		found int
		ok    bool
	}{
		{"equal", []scoredHit{{"a", -0.1}, {"b", -0.2}, {"c", -0.3}}, 3, true},
		{"missed b, let d in", []scoredHit{{"a", -0.1}, {"c", -0.3}, {"d", -0.4}}, 2, true},
		{"wrong score", []scoredHit{{"a", -0.1}, {"b", -0.25}, {"c", -0.3}}, 3, false},
		{"stranger better than the tenth", []scoredHit{{"a", -0.1}, {"d", -0.15}, {"b", -0.2}}, 2, false},
		{"out of order", []scoredHit{{"b", -0.2}, {"a", -0.1}, {"c", -0.3}}, 3, false},
		{"short", []scoredHit{{"a", -0.1}, {"b", -0.2}}, 2, false},
	} {
		found, wanted, err := recallMiss(tc.got, want)
		if found != tc.found || wanted != len(want) || (err == nil) != tc.ok {
			t.Errorf("%s: found %d of %d, err %v; want found %d, ok %v", tc.name, found, wanted, err, tc.found, tc.ok)
		}
	}
}

// TestQuartilesMatchTheDrivers pins quartiles to what Python's
// statistics.quantiles(xs, n=4) returns for the same ten values.
func TestQuartilesMatchTheDrivers(t *testing.T) {
	q1, q3 := quartiles([]float64{20, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	// render writes the first 500 read requests of both clients.
	render := func(seed uint64) []byte {
		pop, err := generate(seed, toyScale.models, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := &schedule{seed: seed, hot: toyScale.hot, pop: pop}
		var b bytes.Buffer
		for stream := 0; stream < 2; stream++ {
			for i := 0; i < 500; i++ {
				r := s.read(stream, i, toyScale.models)
				fmt.Fprintf(&b, "%s %s\n", className[r.cls], r.path)
			}
		}
		return b.Bytes()
	}
	a, b, c := render(7), render(7), render(8)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	s := &schedule{seed: 7, hot: toyScale.hot}
	if bytes.Equal(a[:len(a)/2], a[len(a)/2:]) || s.draw(0, 1, 0) == s.draw(1, 1, 0) {
		t.Error("the two clients share a schedule")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer; tables have %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, got, d)
		}
	}
}
