package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"modellake/internal/obs"
)

// metricDef names one reported number. The two tables below are the single
// source of truth for names, units and directions; BENCHMARK.json and
// bench/README.md repeat them and the smoke test checks they agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // regression bound, end-to-end metrics only
}

// endToEnd are what a client of the served lake sees. Every workload reports
// every one of them, and none is ever zero. The bounds come from the
// interquartile spread measured over ten seeds (bench/README.md has the
// numbers): three times it for the floors of the read workloads, the
// contract's 25 % at most for the medians, the preload rate and set-up.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"related_p10_ms", "ms", "lower", 0.15},
	{"keyword_p10_ms", "ms", "lower", 0.15},
	{"point_p10_ms", "ms", "lower", 0.15},
	{"related_p50_ms", "ms", "lower", 0.25},
	{"keyword_p50_ms", "ms", "lower", 0.25},
	{"point_p50_ms", "ms", "lower", 0.25},
	{"preload_models_per_s", "1/s", "higher", 0.25},
	{"heap_kb_per_model", "kB", "lower", 0.05},
	{"disk_kb_per_model", "kB", "lower", 0.02},
}

// perLayer attribute the time and the work to modules. Names are
// <module>.<metric>. A layer that is not on a workload's path reports 0 —
// that zero is the "bypassed" half of a prediction, not a gap.
var perLayer = []metricDef{
	// server: HTTP span minus the LakeAPI call span.
	{"server.related.self_p50_ms", "ms", "lower", 0},
	{"server.keyword.self_p50_ms", "ms", "lower", 0},
	{"server.point.self_p50_ms", "ms", "lower", 0},
	{"server.mlql.self_p50_ms", "ms", "lower", 0},
	{"server.ingest_batch.self_p50_ms", "ms", "lower", 0},
	{"server.healthz.p50_ms", "ms", "lower", 0},
	{"server.related.resp_bytes", "B", "lower", 0},
	{"server.shed_total", "count", "lower", 0},
	{"server.timeouts_total", "count", "lower", 0},
	{"server.encode_errors_total", "count", "lower", 0},
	// lake: direct calls on the served LakeAPI value.
	{"lake.related.p50_ms", "ms", "lower", 0},
	{"lake.keyword.p50_ms", "ms", "lower", 0},
	{"lake.point.p50_ms", "ms", "lower", 0},
	{"lake.mlql.p50_ms", "ms", "lower", 0},
	{"lake.related.self_p50_ms", "ms", "lower", 0},
	{"lake.model_load.p50_ms", "ms", "lower", 0},
	{"lake.qcache.hit_ratio", "ratio", "higher", 0},
	{"lake.qcache.traced_hit_ratio", "ratio", "lower", 0},
	{"lake.preload_s", "s", "lower", 0},
	{"lake.first_open_s", "s", "lower", 0},
	{"lake.reopen_s", "s", "lower", 0},
	{"lake.heap.vector_kb_per_model", "kB", "lower", 0},
	{"lake.heap.postings_kb_per_model", "kB", "lower", 0},
	{"lake.heap.kv_kb_per_model", "kB", "lower", 0},
	{"lake.heap_growth_kb_per_model", "kB", "lower", 0},
	// embedding
	{"embedding.query.p50_ms", "ms", "lower", 0},
	{"embedding.cache.hit_ratio", "ratio", "higher", 0},
	// search
	{"search.vector.p50_ms", "ms", "lower", 0},
	{"search.keyword.p50_ms", "ms", "lower", 0},
	{"search.keyword.blocks_scanned_per_query", "count", "lower", 0},
	{"search.keyword.block_skip_ratio", "ratio", "higher", 0},
	{"search.keyword.lock_wait_us_per_query", "us", "lower", 0},
	{"search.keyword.merges_total", "count", "lower", 0},
	{"search.keyword.merge_s_total", "s", "lower", 0},
	{"search.keyword.demotes_total", "count", "lower", 0},
	// index: standalone index of the workload's kind over the same vectors,
	// plus counter deltas of the served lake.
	{"index.search.p50_ms", "ms", "lower", 0},
	{"index.candidates_per_search", "count", "lower", 0},
	{"index.flat.candidates_per_search", "count", "lower", 0},
	{"index.pq.lut_builds_per_search", "count", "lower", 0},
	{"index.rescore_rows_per_search", "count", "lower", 0},
	{"index.tier_bytes_per_row", "B", "lower", 0},
	{"index.segment_open_ms", "ms", "lower", 0},
	// index-kind side table (read_flat_4k traced pass only).
	{"index.flat.search_p50_ms", "ms", "lower", 0},
	{"index.int8.search_p50_ms", "ms", "lower", 0},
	{"index.pq.search_p50_ms", "ms", "lower", 0},
	{"index.diskflat.search_p50_ms", "ms", "lower", 0},
	{"index.hnsw.search_p50_ms", "ms", "lower", 0},
	{"index.flat.bytes_per_row", "B", "lower", 0},
	{"index.int8.bytes_per_row", "B", "lower", 0},
	{"index.pq.bytes_per_row", "B", "lower", 0},
	{"index.diskflat.bytes_per_row", "B", "lower", 0},
	{"index.hnsw.bytes_per_row", "B", "lower", 0},
	{"index.hnsw.recall_at_10", "ratio", "higher", 0},
	{"index.hnsw.build_s", "s", "lower", 0},
	// tensor kernels over a slab of the behaviour dimension.
	{"tensor.dot_scan.ns_per_row", "ns", "lower", 0},
	{"tensor.adc_scan.ns_per_row", "ns", "lower", 0},
	// mlql
	{"mlql.parse.p50_us", "us", "lower", 0},
	{"mlql.candidates.p50_ms", "ms", "lower", 0},
	{"mlql.execute.p50_ms", "ms", "lower", 0},
	{"mlql.rows_examined_per_hit", "count", "lower", 0},
	// registry
	{"registry.card.p50_us", "us", "lower", 0},
	{"registry.list.p50_ms", "ms", "lower", 0},
	// kvstore and blob: work per model acked during the timed writes.
	{"kvstore.appends_per_model", "count", "lower", 0},
	{"kvstore.fsyncs_per_model", "count", "lower", 0},
	{"kvstore.append_ms_per_model", "ms", "lower", 0},
	{"kvstore.fsync_ms_per_model", "ms", "lower", 0},
	{"kvstore.commit_batch_mean", "count", "higher", 0},
	{"kvstore.log_bytes_per_model", "B", "lower", 0},
	{"kvstore.rollbacks_total", "count", "lower", 0},
	{"blob.puts_per_model", "count", "lower", 0},
	{"blob.fsyncs_per_model", "count", "lower", 0},
	{"blob.put_ms_per_model", "ms", "lower", 0},
	{"blob.fsync_ms_per_model", "ms", "lower", 0},
	{"blob.bytes_per_model", "B", "lower", 0},
	// cluster: direct calls on *cluster.Cluster, and its counters.
	{"cluster.related.p50_ms", "ms", "lower", 0},
	{"cluster.keyword.p50_ms", "ms", "lower", 0},
	{"cluster.mlql.p50_ms", "ms", "lower", 0},
	{"cluster.failover_reads_total", "count", "lower", 0},
	{"cluster.replica_lag_bytes_max", "B", "lower", 0},
	{"cluster.writes_rejected_total", "count", "lower", 0},
	{"retry.retried_total", "count", "lower", 0},
	// loadgen: the harness itself. Tails live here, gated by nothing.
	{"loadgen.throughput_rps", "1/s", "higher", 0},
	{"loadgen.related.p50_all_ms", "ms", "lower", 0},
	{"loadgen.related_hot.p50_all_ms", "ms", "lower", 0},
	{"loadgen.keyword.p50_all_ms", "ms", "lower", 0},
	{"loadgen.point.p50_all_ms", "ms", "lower", 0},
	{"loadgen.mlql.p50_all_ms", "ms", "lower", 0},
	{"loadgen.ingest_batch.p50_all_ms", "ms", "lower", 0},
	{"loadgen.related.p99_ms", "ms", "lower", 0},
	{"loadgen.related_hot.p99_ms", "ms", "lower", 0},
	{"loadgen.keyword.p99_ms", "ms", "lower", 0},
	{"loadgen.point.p99_ms", "ms", "lower", 0},
	{"loadgen.mlql.p99_ms", "ms", "lower", 0},
	{"loadgen.ingest_batch.p99_ms", "ms", "lower", 0},
	{"loadgen.related.n", "count", "higher", 0},
	{"loadgen.related_hot.n", "count", "higher", 0},
	{"loadgen.keyword.n", "count", "higher", 0},
	{"loadgen.point.n", "count", "higher", 0},
	{"loadgen.mlql.n", "count", "higher", 0},
	{"loadgen.ingest_batch.n", "count", "higher", 0},
	{"loadgen.ingest_models_per_s", "1/s", "higher", 0},
	{"loadgen.fsyncs_per_model", "count", "lower", 0},
	{"loadgen.writer_lateness_p99_ms", "ms", "lower", 0},
	{"loadgen.cpu_steal_frac", "ratio", "lower", 0},
	{"loadgen.exact_match_frac", "ratio", "higher", 0},
	{"loadgen.recall_at_10", "ratio", "higher", 0},
	{"loadgen.failed_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// value is one reported metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects reported numbers by name. Units come from the tables, so
// a name that is not defined there is never printed.
type metrics map[string]float64

// pick returns the values of defs, or an error naming every one that is
// missing or not finite — a run that cannot report a metric is a failed run.
// With zeroMissing a missing metric reads 0: per-layer metrics of a layer
// that is not on the workload's path.
func (m metrics) pick(defs []metricDef, zeroMissing bool) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	var bad []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if (!ok && !zeroMissing) || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("metrics missing or not finite: %s", strings.Join(bad, ", "))
	}
	return out, nil
}

// quantile returns the q-quantile (nearest rank) of xs, 0 when empty. It
// sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTicks reads the aggregate cpu line of /proc/stat: ticks the hypervisor
// gave to somebody else (steal) and all ticks. Zeros when there is no such
// file.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || err != nil {
			continue
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// snapshot is obs.Default() flattened to name+labels → value, with a
// histogram's count and sum under name_count and name_sum.
type snapshot map[string]float64

func takeSnapshot() snapshot {
	s := snapshot{}
	for _, m := range obs.Default().Snapshot() {
		key := m.Name + m.Labels
		if m.Type == "histogram" {
			s[m.Name+"_count"+m.Labels] = float64(m.Count)
			s[m.Name+"_sum"+m.Labels] = m.Sum
			continue
		}
		s[key] = m.Value
	}
	return s
}

// delta sums after−before over every series whose key starts with name and,
// when label is non-empty, contains it.
func delta(before, after snapshot, name, label string) float64 {
	var d float64
	for k, v := range after {
		if !strings.HasPrefix(k, name) {
			continue
		}
		rest := k[len(name):]
		if rest != "" && rest[0] != '{' {
			continue
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		d += v - before[k]
	}
	return d
}

// gaugeMax is the largest current value of any series of a gauge.
func gaugeMax(s snapshot, name string) float64 {
	var mx float64
	for k, v := range s {
		if strings.HasPrefix(k, name) && v > mx {
			mx = v
		}
	}
	return mx
}
