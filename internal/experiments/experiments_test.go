package experiments

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// testSeed returns the workload seed for the shape tests. It defaults to 7 —
// deliberately different from cmd/lakebench's default 42, so the recorded
// EXPERIMENTS.md numbers and the CI assertions come from independent seeds —
// and can be overridden with MODELLAKE_TEST_SEED for robustness sweeps.
func testSeed() uint64 {
	if v := os.Getenv("MODELLAKE_TEST_SEED"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return 7
}

// cell parses a float cell from a table.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i] // "0.89 (16/18)" → "0.89"
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab, err := RunE1(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first, last := 0, len(tab.Rows)-1
	// Keyword search collapses with documentation...
	if kwFull, kwEmpty := cell(t, tab, first, 2), cell(t, tab, last, 2); !(kwFull > 0.8 && kwEmpty < 0.2) {
		t.Fatalf("keyword P@5 shape violated: full=%v empty=%v", kwFull, kwEmpty)
	}
	// ...while content-based search is flat: no row falls meaningfully
	// below its full-documentation level (which itself must be useful).
	ctFull := cell(t, tab, first, 3)
	if ctFull < 0.6 {
		t.Fatalf("content P@5 at full docs = %v, want >= 0.6", ctFull)
	}
	for r := range tab.Rows {
		if ct := cell(t, tab, r, 3); ct < ctFull-0.1 {
			t.Fatalf("content P@5 degraded at row %d: %v (full-docs level %v)", r, ct, ctFull)
		}
	}
	// Hybrid is never much worse than the best single method at full docs.
	if hy := cell(t, tab, first, 4); hy < 0.8 {
		t.Fatalf("hybrid P@5 at full docs = %v", hy)
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := RunE2(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		norm := cell(t, tab, r, 2)
		random := cell(t, tab, r, 6)
		if norm <= random+0.2 {
			t.Fatalf("row %d: weight recovery F1 %v not clearly above random %v", r, norm, random)
		}
	}
	// Declared lineage decays with doc drop (rows 0..2 share a lake size).
	if d0, d2 := cell(t, tab, 0, 5), cell(t, tab, 2, 5); d0 <= d2 {
		t.Fatalf("declared F1 did not decay with drop: %v -> %v", d0, d2)
	}
	// Weight-based recovery is documentation-independent: identical across
	// the drop sweep.
	if w0, w2 := cell(t, tab, 0, 2), cell(t, tab, 2, 2); w0 != w2 {
		t.Fatalf("weight F1 changed with documentation: %v vs %v", w0, w2)
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := RunE3(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	if mean[0] != "mean" {
		t.Fatalf("last row is not the mean: %v", mean)
	}
	rho, _ := strconv.ParseFloat(mean[1], 64)
	if rho < 0.4 {
		t.Fatalf("mean influence-LOO Spearman = %v, want >= 0.4", rho)
	}
	ov, _ := strconv.ParseFloat(mean[2], 64)
	if ov < 0.5 {
		t.Fatalf("mean top-5 overlap = %v, want >= 0.5", ov)
	}
}

func TestE4ShapeSmall(t *testing.T) {
	// The full E4 sweeps to 50k vectors; the shape check sweeps 500 → 5k,
	// with the efSearch ablation at 5k, and reads the work HNSW does off
	// its visit counter rather than the clock, so it holds on any machine.
	// Of the sweeps tried, this is the smallest at which the counted bars
	// below keep a margin over seeds 1, 2, 3, 7 and 42: 500 → 1500 → 3000
	// meets them at seed 7 but sits exactly on the sublinearity bar at 42. The wall-clock bars are in
	// TestE4SpeedupSmoke.
	if testing.Short() {
		t.Skip("E4 takes seconds; skipped in -short")
	}
	tab, err := runE4(testSeed(), []int{500, 2000, 5000}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..2 sweep n; rows 3..6 are the efSearch ablation at n=5k.
	const largestN = 2
	if rec := cell(t, tab, largestN, 6); rec < 0.85 {
		t.Fatalf("HNSW recall at largest n = %v, want >= 0.85", rec)
	}
	// Visits are a falling fraction of n at every step, and over the sweep
	// they grow by less than the square root of n's growth: sublinear.
	for r := 1; r <= largestN; r++ {
		n0, n1 := cell(t, tab, r-1, 0), cell(t, tab, r, 0)
		v0, v1 := cell(t, tab, r-1, 3), cell(t, tab, r, 3)
		if v1/n1 >= v0/n0 {
			t.Fatalf("HNSW visits/query as a fraction of n did not fall: %v/%v -> %v/%v", v0, n0, v1, n1)
		}
	}
	nGrowth := cell(t, tab, largestN, 0) / cell(t, tab, 0, 0)
	if vGrowth := cell(t, tab, largestN, 3) / cell(t, tab, 0, 3); vGrowth*vGrowth >= nGrowth {
		t.Fatalf("HNSW visits/query grew %.2fx while n grew %.0fx: not sublinear", vGrowth, nGrowth)
	}
	// efSearch ablation: recall non-decreasing in ef, and the largest ef
	// reaches high recall.
	if lo, hi := cell(t, tab, largestN+1, 6), cell(t, tab, largestN+4, 6); hi < lo || hi < 0.95 {
		t.Fatalf("efSearch ablation shape violated: ef16=%v ef160=%v", lo, hi)
	}
}

// TestE4SpeedupSmoke holds the full E4 sweep to its wall-clock bars: HNSW at
// least 2x faster than the flat scan at the largest n, and the speedup
// growing with n. A ratio of two timings on a shared machine is noisy, so it
// runs only when MODELLAKE_SCALE_SMOKE is set (the CI bench job sets it).
func TestE4SpeedupSmoke(t *testing.T) {
	if os.Getenv("MODELLAKE_SCALE_SMOKE") == "" {
		t.Skip("set MODELLAKE_SCALE_SMOKE=1 to run the E4 wall-clock bars")
	}
	tab, err := RunE4(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	largestN := len(e4Sizes) - 1
	if sp := cell(t, tab, largestN, 4); sp < 2 {
		t.Fatalf("HNSW speedup at largest n = %vx, want >= 2x", sp)
	}
	// Speedup grows with n.
	if spFirst, spLast := cell(t, tab, 0, 4), cell(t, tab, largestN, 4); spLast <= spFirst {
		t.Fatalf("speedup not growing with n: %v -> %v", spFirst, spLast)
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := RunE5(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..4 sweep epochs; rows 5/6 are the DP-SGD and masking defences.
	first, overfit := cell(t, tab, 0, 3), cell(t, tab, 4, 3)
	if overfit <= first+0.1 {
		t.Fatalf("membership AUC did not grow with epochs: %v -> %v", first, overfit)
	}
	if overfit < 0.65 {
		t.Fatalf("overfit AUC = %v, want >= 0.65", overfit)
	}
	dp := cell(t, tab, 5, 3)
	if dp >= overfit-0.03 {
		t.Fatalf("DP-SGD did not reduce exposure: %v -> %v", overfit, dp)
	}
	mask := cell(t, tab, 6, 3)
	if mask < overfit-0.1 {
		t.Fatalf("output masking unexpectedly defended (%v -> %v): false-sense claim broken",
			overfit, mask)
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := RunE6(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	// Drafts always improve completeness when fields were dropped.
	for r := 0; r < 3; r++ {
		census, draft := cell(t, tab, r, 2), cell(t, tab, r, 3)
		if draft <= census {
			t.Fatalf("row %d: draft completeness %v did not improve on %v", r, draft, census)
		}
	}
	// Domain recovery beats a 4-way coin flip.
	if acc := cell(t, tab, 1, 4); acc < 0.5 {
		t.Fatalf("domain recovery at drop 0.6 = %v, want >= 0.5", acc)
	}
	// Combined misinformation detection (docgen contradiction flags +
	// behavioural claim verification) catches the majority of lying cards.
	// The exact rate is seed-dependent: when two synthetic domains happen to
	// be geometrically close, a lie that claims the neighbouring domain is
	// genuinely hard to refute behaviourally — the honest limit of
	// content-based card verification.
	if det := cell(t, tab, 3, 6); det < 0.5 {
		t.Fatalf("lie detection = %v, want >= 0.5", det)
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := RunE7(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	// AUC at the longest/strongest setting must be ~1.
	last := len(tab.Rows) - 1
	if auc := cell(t, tab, last, 4); auc < 0.99 {
		t.Fatalf("watermark AUC = %v, want >= 0.99", auc)
	}
	// z grows with token count at fixed delta (rows 0,2,4 are delta=1).
	z25, z400 := cell(t, tab, 0, 2), cell(t, tab, 4, 2)
	if z400 <= z25 {
		t.Fatalf("z did not grow with length: %v -> %v", z25, z400)
	}
	if !strings.Contains(tab.Notes, "3/3 change classes detected") {
		t.Fatalf("citation integrity failed: %s", tab.Notes)
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := RunE8(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	// Domain probe beats its majority baseline decisively.
	if acc, base := cell(t, tab, 0, 1), cell(t, tab, 0, 2); acc <= base+0.2 {
		t.Fatalf("domain probe %v not clearly above baseline %v", acc, base)
	}
	// Transformation is a much weaker signal at this scale: require only
	// that the probe can fit it (train accuracy above baseline) — the
	// honest claim the table reports.
	if trainAcc, base := cell(t, tab, 1, 3), cell(t, tab, 1, 2); trainAcc <= base {
		t.Fatalf("transform probe train accuracy %v not above baseline %v", trainAcc, base)
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := RunE9(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] == "no" {
			t.Fatalf("query %q returned an incorrect result set", row[1])
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := RunE10(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		rec := cell(t, tab, r, 2)
		dec := cell(t, tab, r, 4)
		if r > 0 && rec < dec {
			t.Fatalf("row %d: recovered recall %v below declared %v under doc loss", r, rec, dec)
		}
	}
	// Declared recall decays to ~0; recovered stays put.
	if first, last := cell(t, tab, 0, 4), cell(t, tab, len(tab.Rows)-1, 4); last >= first {
		t.Fatalf("declared recall did not decay: %v -> %v", first, last)
	}
	if first, last := cell(t, tab, 0, 2), cell(t, tab, len(tab.Rows)-1, 2); last < first-0.05 {
		t.Fatalf("recovered recall decayed with documentation: %v -> %v", first, last)
	}
}

func TestF1Shape(t *testing.T) {
	tab, err := RunF1(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	behaviour := cell(t, tab, 0, 2)
	docs := cell(t, tab, 2, 2)
	if behaviour <= docs {
		t.Fatalf("behaviour viewpoint P@5 %v should beat docs-only %v at 50%% drop", behaviour, docs)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bbbb"}, Notes: "n"}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a", "bbbb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range All() {
		if ex.Run == nil {
			t.Fatalf("%s has no runner", ex.ID)
		}
		if ids[ex.ID] {
			t.Fatalf("duplicate id %s", ex.ID)
		}
		ids[ex.ID] = true
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "F1"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
}

func TestE11Shape(t *testing.T) {
	tab, err := RunE11(testSeed())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Phase 1 evaluates everything; later phases only the new pairs; the
	// steady-state phase evaluates nothing.
	if got := tab.Rows[0][4]; got != tab.Rows[0][3] {
		t.Fatalf("initial phase evaluated %s of %s pairs", got, tab.Rows[0][3])
	}
	if got := tab.Rows[3][4]; got != "0" {
		t.Fatalf("steady-state phase evaluated %s pairs, want 0", got)
	}
	grow := cell(t, tab, 1, 4)
	total := cell(t, tab, 1, 3)
	if grow >= total {
		t.Fatalf("growth phase re-evaluated everything: %v of %v", grow, total)
	}
}

// TestE12Shape pins the pipeline's acceptance property at test time: a
// parallel ingest must answer top-k searches identically to the serial
// loop, and the machine-readable result must describe the requested run.
func TestE12Shape(t *testing.T) {
	tab, res, err := RunE12Ingest(testSeed(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 { // serial + sweep of at least 1,2,4
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if res == nil {
		t.Fatal("no result for requested parallelism")
	}
	if res.Parallelism != 2 {
		t.Fatalf("result parallelism = %d, want 2", res.Parallelism)
	}
	if !res.IdenticalTopK {
		t.Fatal("parallel ingest changed top-k results")
	}
	if res.NModels == 0 || res.SerialNs <= 0 || res.ParallelNs <= 0 || res.Speedup <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestE13Shape pins the read-path benchmark's acceptance property at test
// time: the optimized flat scan must answer top-k queries bitwise-identically
// to the naive full-sort reference, and the cached read path must agree with
// the uncached one.
func TestE13Shape(t *testing.T) {
	tab, res, err := RunE13Query(testSeed(), []int{300, 1200}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // (flat+hnsw) × 2 sizes + cache row
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.IdenticalTopK {
			t.Fatalf("%s@%d: optimized top-k diverged from reference", p.Kind, p.NModels)
		}
		if p.QPS <= 0 || p.P50Ns <= 0 || p.P99Ns < p.P50Ns {
			t.Fatalf("implausible point: %+v", p)
		}
	}
	if !res.CacheIdentical {
		t.Fatal("cached search results diverged from uncached")
	}
	if res.CacheHits == 0 {
		t.Fatalf("warm lake reported no query-cache hits: %+v", res)
	}
}

// TestE14Shape pins the write-path benchmark's structural properties at test
// time (small sizes; the headline ratios are asserted by CI on the full-size
// run): every arm commits and recovers, fsync accounting is sane — the batch
// discipline must pay strictly fewer fsyncs than the per-op discipline for
// the same durable state — and the reopen arm recovers the model count.
func TestE14Shape(t *testing.T) {
	tab, res, err := RunE14Write(testSeed(), 30, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	if res.IngestModels != 30 || res.OpenModels != 120 {
		t.Fatalf("sizes not honored: %+v", res)
	}
	if res.MetaKeys <= res.IngestModels {
		t.Fatalf("implausible metadata key count %d for %d models", res.MetaKeys, res.IngestModels)
	}
	for name, ns := range map[string]int64{
		"legacy": res.LegacyPerOpNs, "group": res.GroupCommitNs,
		"apply": res.BatchApplyNs, "serial ingest": res.SerialIngestNs,
		"batch ingest": res.BatchIngestNs, "fast open": res.FastOpenNs,
	} {
		if ns <= 0 {
			t.Fatalf("arm %s reported no time: %+v", name, res)
		}
	}
	// The legacy discipline fsyncs once per key; batch apply must beat it
	// by a wide margin on fsync count regardless of wall-clock noise.
	if res.LegacyFsyncs < res.MetaKeys {
		t.Fatalf("legacy arm fsynced %d times for %d keys", res.LegacyFsyncs, res.MetaKeys)
	}
	if res.BatchApplyFsyncs*10 > res.LegacyFsyncs {
		t.Fatalf("batch apply did not coalesce fsyncs: %d vs legacy %d",
			res.BatchApplyFsyncs, res.LegacyFsyncs)
	}
	// Group commit coalesces concurrent per-op writers: fewer fsyncs than
	// one per key.
	if res.GroupCommitFsyncs >= res.LegacyFsyncs {
		t.Fatalf("group commit coalesced nothing: %d vs legacy %d",
			res.GroupCommitFsyncs, res.LegacyFsyncs)
	}
	// The batch ingest pipeline pays at most a small constant number of
	// fsyncs per model; the serial loop pays more.
	if res.BatchFsyncsPerModel >= res.SerialFsyncsPerModel {
		t.Fatalf("batch ingest fsyncs/model %.2f not below serial %.2f",
			res.BatchFsyncsPerModel, res.SerialFsyncsPerModel)
	}
	if res.IngestSpeedup <= 0 || res.GroupCommitSpeedup <= 0 {
		t.Fatalf("implausible speedups: %+v", res)
	}
}

func TestE15Shape(t *testing.T) {
	tab, res, err := RunE15Cluster(testSeed(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	// The whole point of the cluster read path: scatter-gather and failover
	// answers are bit-identical to single-node. RunE15Cluster errors out on
	// divergence, but the JSON field is what CI archives — pin it too.
	if !res.BitwiseEqual {
		t.Fatalf("cluster search diverged from single-node: %+v", res)
	}
	if res.Models <= 0 || res.Shards != 3 || res.Replicas != 1 {
		t.Fatalf("implausible topology: %+v", res)
	}
	for name, ns := range map[string]int64{
		"single ingest": res.SingleIngestNs, "cluster ingest": res.ClusterIngestNs,
		"single keyword": res.SingleKeywordNs, "cluster keyword": res.ClusterKeywordNs,
		"failover keyword": res.FailoverKeywordNs,
		"single vector":    res.SingleVectorNs, "cluster vector": res.ClusterVectorNs,
		"failover vector": res.FailoverVectorNs,
	} {
		if ns <= 0 {
			t.Fatalf("arm %s reported no time: %+v", name, res)
		}
	}
	if res.KeywordQueries <= 0 || res.VectorQueries <= 0 {
		t.Fatalf("no queries ran: %+v", res)
	}
	// Promotion arms: the kill must have promoted (and been timed), and the
	// post-promotion write wave must have gone through the promoted leader.
	if res.PromoteNs <= 0 {
		t.Fatalf("promotion reported no time: %+v", res)
	}
	if res.PostPromoteWrites <= 0 || res.PostPromoteWriteNs <= 0 {
		t.Fatalf("post-promotion write arm did not run: %+v", res)
	}
}
