package benchmark

import (
	"errors"
	"math"
	"testing"

	"modellake/internal/data"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

func trained(t *testing.T, seed uint64) (*model.Model, *data.Dataset) {
	t.Helper()
	dom := data.NewDomain("bench", 6, 3, seed)
	ds := dom.Sample("bench/v1", 150, 0.4, xrand.New(seed+1))
	net := nn.NewMLP([]int{6, 12, 3}, nn.ReLU, xrand.New(seed+2))
	if _, err := nn.Train(net, ds, nn.DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	return &model.Model{ID: "m-1", Name: "bench-model", Net: net}, ds
}

func TestRunAccuracy(t *testing.T) {
	m, ds := trained(t, 1)
	b := &Benchmark{ID: "b1", DS: ds, Metric: MetricAccuracy}
	s, err := Run(model.NewHandle(m), b)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 || s > 1 {
		t.Fatalf("accuracy = %v", s)
	}
}

func TestRunMacroF1(t *testing.T) {
	m, ds := trained(t, 2)
	b := &Benchmark{ID: "b2", DS: ds, Metric: MetricMacroF1}
	s, err := Run(model.NewHandle(m), b)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 || s > 1 {
		t.Fatalf("macro F1 = %v", s)
	}
}

func TestRunCrossEntropyNegated(t *testing.T) {
	m, ds := trained(t, 3)
	b := &Benchmark{ID: "b3", DS: ds, Metric: MetricCrossEntropy}
	s, err := Run(model.NewHandle(m), b)
	if err != nil {
		t.Fatal(err)
	}
	if s > 0 {
		t.Fatalf("negated cross-entropy should be <= 0, got %v", s)
	}
	// A good model is closer to 0 than a random model.
	random := &model.Model{ID: "m-r", Net: nn.NewMLP([]int{6, 12, 3}, nn.ReLU, xrand.New(99))}
	sr, err := Run(model.NewHandle(random), b)
	if err != nil {
		t.Fatal(err)
	}
	if s <= sr {
		t.Fatalf("trained model xent score %v not better than random %v", s, sr)
	}
}

func TestRunErrors(t *testing.T) {
	m, ds := trained(t, 4)
	if _, err := Run(model.NewHandle(m), &Benchmark{ID: "x", DS: ds, Metric: "nonsense"}); !errors.Is(err, ErrUnknownMetric) {
		t.Fatalf("unknown metric: %v", err)
	}
	empty := &data.Dataset{X: tensor.NewMatrix(0, 6), NumClasses: 3}
	if _, err := Run(model.NewHandle(m), &Benchmark{ID: "y", DS: empty}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestFrechetGaussian(t *testing.T) {
	mu := tensor.Vector{0.5, 0.5}
	v := tensor.Vector{0.1, 0.1}
	d, err := FrechetGaussian(mu, v, mu, v)
	if err != nil || d != 0 {
		t.Fatalf("self distance = %v, %v", d, err)
	}
	far, err := FrechetGaussian(mu, v, tensor.Vector{0.9, 0.1}, v)
	if err != nil || far <= 0 {
		t.Fatalf("far distance = %v, %v", far, err)
	}
	if _, err := FrechetGaussian(mu, v, tensor.Vector{1}, v); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestFitOutputGaussianAndFrechetOrdering(t *testing.T) {
	m1, ds1 := trained(t, 5)
	// Same dataset, independent initialization: behaviourally similar.
	net2 := nn.NewMLP([]int{6, 12, 3}, nn.ReLU, xrand.New(55))
	if _, err := nn.Train(net2, ds1, nn.DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	m2 := &model.Model{ID: "m-2", Net: net2}
	domOther := data.NewDomain("other", 6, 3, 77)
	dsOther := domOther.Sample("other/v1", 150, 0.4, xrand.New(78))
	net3 := nn.NewMLP([]int{6, 12, 3}, nn.ReLU, xrand.New(79))
	if _, err := nn.Train(net3, dsOther, nn.DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
	m3 := &model.Model{ID: "m-3", Net: net3}

	probes := data.ProbeSet(6, 64, 11)
	fit := func(m *model.Model) (tensor.Vector, tensor.Vector) {
		mu, va, err := FitOutputGaussian(model.NewHandle(m), probes)
		if err != nil {
			t.Fatal(err)
		}
		return mu, va
	}
	mu1, v1 := fit(m1)
	mu2, v2 := fit(m2)
	mu3, v3 := fit(m3)
	dSame, _ := FrechetGaussian(mu1, v1, mu2, v2)
	dDiff, _ := FrechetGaussian(mu1, v1, mu3, v3)
	if dSame >= dDiff {
		t.Fatalf("Fréchet ordering violated: same-domain %v >= cross-domain %v", dSame, dDiff)
	}
}

func TestRunnerCaches(t *testing.T) {
	m, ds := trained(t, 7)
	r := NewRunner(kvstore.OpenMemory())
	b := &Benchmark{ID: "b", DS: ds, Metric: MetricAccuracy}
	h := model.NewHandle(m)
	if _, ok, err := r.Cached(h.ID(), b); ok || err != nil {
		t.Fatalf("Cached before scoring: ok=%v err=%v", ok, err)
	}
	s1, err := r.Score(h, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Score(h, b)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("cached score changed: %v vs %v", s1, s2)
	}
	if r.Hits != 1 || r.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", r.Hits, r.Misses)
	}
	// The lookup by ID alone returns the same score, counted like Score's hit.
	if s3, ok, err := r.Cached(h.ID(), b); !ok || err != nil || s3 != s1 {
		t.Fatalf("Cached = %v, %v, %v; want %v", s3, ok, err, s1)
	}
	if r.Hits != 2 || r.Misses != 1 {
		t.Fatalf("after Cached: hits=%d misses=%d, want 2/1", r.Hits, r.Misses)
	}
}

func TestRunnerCachePersists(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.Open(dir+"/scores.log", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, ds := trained(t, 8)
	b := &Benchmark{ID: "b", DS: ds, Metric: MetricAccuracy}
	r := NewRunner(kv)
	if _, err := r.Score(model.NewHandle(m), b); err != nil {
		t.Fatal(err)
	}
	kv.Close()

	kv2, err := kvstore.Open(dir+"/scores.log", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	r2 := NewRunner(kv2)
	if _, err := r2.Score(model.NewHandle(m), b); err != nil {
		t.Fatal(err)
	}
	if r2.Misses != 0 || r2.Hits != 1 {
		t.Fatalf("lifelong cache not reused: hits=%d misses=%d", r2.Hits, r2.Misses)
	}
}

func TestLeaderboardOrdering(t *testing.T) {
	good, ds := trained(t, 9)
	bad := &model.Model{ID: "m-bad", Net: nn.NewMLP([]int{6, 12, 3}, nn.ReLU, xrand.New(100))}
	r := NewRunner(kvstore.OpenMemory())
	b := &Benchmark{ID: "lb", DS: ds, Metric: MetricAccuracy}
	entries, err := r.Leaderboard([]*model.Handle{model.NewHandle(bad), model.NewHandle(good)}, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ModelID != "m-1" {
		t.Fatalf("leaderboard = %v", entries)
	}
	if entries[0].Score < entries[1].Score {
		t.Fatal("leaderboard not sorted descending")
	}
}

func TestLeaderboardSkipsBrokenModels(t *testing.T) {
	good, ds := trained(t, 10)
	wrongDim := &model.Model{ID: "m-w", Net: nn.NewMLP([]int{4, 6, 3}, nn.ReLU, xrand.New(1))}
	r := NewRunner(kvstore.OpenMemory())
	b := &Benchmark{ID: "lb2", DS: ds, Metric: MetricAccuracy}
	entries, err := r.Leaderboard([]*model.Handle{model.NewHandle(wrongDim), model.NewHandle(good)}, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ModelID != "m-1" {
		t.Fatalf("leaderboard = %v", entries)
	}
}

func TestPrecisionRecallNDCG(t *testing.T) {
	ranking := []string{"a", "b", "c", "d"}
	rel := map[string]bool{"a": true, "c": true}
	if got := PrecisionAtK(ranking, rel, 2); got != 0.5 {
		t.Fatalf("P@2 = %v", got)
	}
	if got := RecallAtK(ranking, rel, 4); got != 1 {
		t.Fatalf("R@4 = %v", got)
	}
	if got := PrecisionAtK(ranking, rel, 0); got != 0 {
		t.Fatalf("P@0 = %v", got)
	}
	perfect := NDCGAtK([]string{"a", "c", "b"}, rel, 3)
	if math.Abs(perfect-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", perfect)
	}
	worse := NDCGAtK([]string{"b", "a", "c"}, rel, 3)
	if worse >= perfect {
		t.Fatalf("NDCG ordering: %v >= %v", worse, perfect)
	}
	if NDCGAtK(ranking, map[string]bool{}, 3) != 0 {
		t.Fatal("NDCG with no relevant should be 0")
	}
}

func TestMeanReciprocalRank(t *testing.T) {
	rankings := [][]string{{"x", "a"}, {"a", "x"}}
	rels := []map[string]bool{{"a": true}, {"a": true}}
	if got := MeanReciprocalRank(rankings, rels); got != 0.75 {
		t.Fatalf("MRR = %v", got)
	}
	if MeanReciprocalRank(nil, nil) != 0 {
		t.Fatal("empty MRR should be 0")
	}
}
