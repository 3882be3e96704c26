// Package benchmark implements both halves of the paper's benchmarking
// story:
//
//   - Classic single-model benchmarking (§4): datasets with scoring
//     functions (accuracy, macro-F1, cross-entropy/perplexity, and a Fréchet
//     distance between Gaussian fits of output distributions — the FID
//     analogue), run through a runner with durable score caching so
//     "lifelong" benchmark maintenance is incremental.
//
//   - Model-lake benchmarking (§3/§5): evaluators that score *lake-task
//     solutions* (search rankings, version graphs, attribution rankings)
//     against the verified ground truth of a generated benchmark lake.
package benchmark

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"modellake/internal/data"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/tensor"
)

// Metric names understood by Run.
const (
	MetricAccuracy     = "accuracy"
	MetricMacroF1      = "macro_f1"
	MetricCrossEntropy = "cross_entropy"
)

// Benchmark couples a labeled dataset with a scoring metric.
type Benchmark struct {
	ID     string
	DS     *data.Dataset
	Metric string
}

// ErrUnknownMetric reports an unsupported metric name.
var ErrUnknownMetric = errors.New("benchmark: unknown metric")

// Run scores a model's extrinsic behaviour on the benchmark. Higher is
// better for accuracy/F1; cross-entropy is returned negated so that "higher
// is better" holds uniformly across metrics.
func Run(h model.ExtrinsicView, b *Benchmark) (float64, error) {
	if b.DS == nil || b.DS.Len() == 0 {
		return 0, fmt.Errorf("benchmark %s: empty dataset", b.ID)
	}
	switch b.Metric {
	case MetricAccuracy, "":
		return accuracy(h, b.DS)
	case MetricMacroF1:
		return macroF1(h, b.DS)
	case MetricCrossEntropy:
		ce, err := crossEntropy(h, b.DS)
		return -ce, err
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownMetric, b.Metric)
}

func accuracy(h model.ExtrinsicView, ds *data.Dataset) (float64, error) {
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		pred, err := h.Predict(x)
		if err != nil {
			return 0, err
		}
		if pred == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

func macroF1(h model.ExtrinsicView, ds *data.Dataset) (float64, error) {
	k := ds.NumClasses
	tp := make([]int, k)
	fp := make([]int, k)
	fn := make([]int, k)
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		pred, err := h.Predict(x)
		if err != nil {
			return 0, err
		}
		if pred == y {
			tp[y]++
		} else {
			if pred >= 0 && pred < k {
				fp[pred]++
			}
			fn[y]++
		}
	}
	total := 0.0
	for c := 0; c < k; c++ {
		den := 2*tp[c] + fp[c] + fn[c]
		if den > 0 {
			total += 2 * float64(tp[c]) / float64(den)
		}
	}
	return total / float64(k), nil
}

func crossEntropy(h model.ExtrinsicView, ds *data.Dataset) (float64, error) {
	total := 0.0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		p, err := h.Probs(x)
		if err != nil {
			return 0, err
		}
		q := p[y]
		if q < 1e-12 {
			q = 1e-12
		}
		total += -math.Log(q)
	}
	return total / float64(ds.Len()), nil
}

// FrechetGaussian computes the Fréchet distance between two diagonal
// Gaussians fitted to model output distributions — the lake's FID analogue
// for comparing generative behaviour:
//
//	d² = ‖μ₁−μ₂‖² + Σᵢ (σ₁ᵢ + σ₂ᵢ − 2·√(σ₁ᵢ·σ₂ᵢ))
func FrechetGaussian(mu1, var1, mu2, var2 tensor.Vector) (float64, error) {
	if len(mu1) != len(mu2) || len(var1) != len(var2) || len(mu1) != len(var1) {
		return 0, fmt.Errorf("benchmark: Fréchet dimension mismatch")
	}
	d2 := 0.0
	for i := range mu1 {
		d := mu1[i] - mu2[i]
		d2 += d * d
		s1, s2 := math.Max(var1[i], 0), math.Max(var2[i], 0)
		d2 += s1 + s2 - 2*math.Sqrt(s1*s2)
	}
	return d2, nil
}

// FitOutputGaussian probes a model on the given inputs and fits a diagonal
// Gaussian to its output distributions.
func FitOutputGaussian(h model.ExtrinsicView, probes tensor.Matrix) (mu, variance tensor.Vector, err error) {
	if probes.Rows == 0 {
		return nil, nil, fmt.Errorf("benchmark: no probes")
	}
	var dim int
	var sum, sumSq tensor.Vector
	for i := 0; i < probes.Rows; i++ {
		p, err := h.Probs(probes.Row(i))
		if err != nil {
			return nil, nil, err
		}
		if sum == nil {
			dim = len(p)
			sum = tensor.NewVector(dim)
			sumSq = tensor.NewVector(dim)
		}
		for j, v := range p {
			sum[j] += v
			sumSq[j] += v * v
		}
	}
	n := float64(probes.Rows)
	mu = tensor.NewVector(dim)
	variance = tensor.NewVector(dim)
	for j := 0; j < dim; j++ {
		mu[j] = sum[j] / n
		variance[j] = sumSq[j]/n - mu[j]*mu[j]
	}
	return mu, variance, nil
}

// Runner executes benchmarks with durable score caching, making repeated
// and lifelong (incrementally growing) evaluation cheap: a (model, bench)
// pair is only ever scored once.
type Runner struct {
	kv *kvstore.Store
	mu sync.Mutex

	// Hits and Misses count cache behaviour (observable for the lifelong-
	// benchmark experiment).
	Hits, Misses int
}

// NewRunner creates a runner caching into kv (use kvstore.OpenMemory() for
// ephemeral runs).
func NewRunner(kv *kvstore.Store) *Runner { return &Runner{kv: kv} }

// SetStore re-points the score cache at a different store. A replica lake
// caches into private memory so its log stays a byte prefix of its leader's;
// on promotion to leader the runner is re-pointed at the durable store so
// scores cache durably again. Scores computed before the swap are simply
// recomputed on demand — they are deterministic.
func (r *Runner) SetStore(kv *kvstore.Store) {
	r.mu.Lock()
	r.kv = kv
	r.mu.Unlock()
}

func scoreKey(modelID, benchID, metric string) string {
	return "score/" + modelID + "/" + benchID + "/" + metric
}

// Cached returns the cached score of model modelID on the benchmark, counted
// as a hit; ok is false when none is cached. It needs no model, so a caller
// can skip loading one whose score is known.
func (r *Runner) Cached(modelID string, b *Benchmark) (s float64, ok bool, err error) {
	key := scoreKey(modelID, b.ID, b.Metric)
	r.mu.Lock()
	raw, gerr := r.kv.Get(key)
	if gerr == nil {
		r.Hits++
	}
	r.mu.Unlock()
	if gerr != nil {
		return 0, false, nil
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, false, fmt.Errorf("benchmark: corrupt cached score %s: %w", key, err)
	}
	return s, true, nil
}

// Score returns the model's score on the benchmark, computing and caching it
// on first use. The handle's ID keys the cache.
func (r *Runner) Score(h *model.Handle, b *Benchmark) (float64, error) {
	if s, ok, err := r.Cached(h.ID(), b); ok || err != nil {
		return s, err
	}
	r.mu.Lock()
	r.Misses++
	kv := r.kv // captured under mu: SetStore may swap it concurrently
	r.mu.Unlock()

	s, err := Run(h, b)
	if err != nil {
		return 0, err
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return 0, err
	}
	if err := kv.Put(scoreKey(h.ID(), b.ID, b.Metric), raw); err != nil {
		return 0, err
	}
	return s, nil
}

// Leaderboard scores every handle on the benchmark and returns IDs with
// scores, best first. Models that cannot run the benchmark are skipped.
func (r *Runner) Leaderboard(handles []*model.Handle, b *Benchmark) ([]Entry, error) {
	var out []Entry
	for _, h := range handles {
		s, err := r.Score(h, b)
		if err != nil {
			continue
		}
		out = append(out, Entry{ModelID: h.ID(), Score: s})
	}
	sortEntries(out)
	return out, nil
}

// Entry is one leaderboard row.
type Entry struct {
	ModelID string
	Score   float64
}

// sortEntries orders best first, ties by model ID.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Score != es[j].Score {
			return es[i].Score > es[j].Score
		}
		return es[i].ModelID < es[j].ModelID
	})
}
