// Package weightspace implements §5's weight-space modeling: a meta-model (a
// small MLP) trained to read other models' weights — here, to predict a
// model's training domain and the transformation that produced it from θ
// alone. It is the engine behind docgen's ability to fill in missing
// "domain" fields, and experiment E8's subject.
//
// The package also provides the cross-task linearity check of Zhou et al.:
// interpolating the weights of a base and its fine-tuned child should yield
// models whose behaviour interpolates smoothly (high linear-connectivity
// score), while interpolating unrelated models should not.
package weightspace

import (
	"fmt"
	"sort"
	"sync"

	"modellake/internal/data"
	"modellake/internal/embedding"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// Probe is a trained weight-space classifier for one label family (e.g.
// "domain" or "transform").
type Probe struct {
	classes []string
	net     *nn.MLP
	emb     *embedding.WeightEmbedder
}

// ProbeConfig configures probe training.
type ProbeConfig struct {
	Hidden int
	Epochs int
	LR     float64
	Seed   uint64
	// Embedder embeds the model weights; nil selects the standard
	// deterministic weight embedder.
	Embedder *embedding.WeightEmbedder
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Embedder == nil {
		c.Embedder = defaultEmbedder()
	}
	return c
}

// defaultEmbedder is the standard weight embedder, built on first use and
// shared by every probe trained without one: its 4096 × 32 projection takes
// milliseconds and a megabyte to build, docgen trains a probe per request,
// and the embedder is read-only once built.
var defaultEmbedder = sync.OnceValue(func() *embedding.WeightEmbedder {
	return embedding.NewWeightEmbedder(32, 4, 12345)
})

// TrainProbe fits a weight-space classifier on (model, label) pairs. Labels
// are arbitrary strings; the probe learns to predict them from weight
// embeddings. It returns the probe and its training accuracy.
func TrainProbe(handles []*model.Handle, labels []string, cfg ProbeConfig) (*Probe, float64, error) {
	if len(handles) == 0 || len(handles) != len(labels) {
		return nil, 0, fmt.Errorf("weightspace: need equal nonzero handles (%d) and labels (%d)",
			len(handles), len(labels))
	}
	cfg = cfg.withDefaults()

	// Stable class indexing.
	classSet := map[string]bool{}
	for _, l := range labels {
		classSet[l] = true
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	if len(classes) < 2 {
		return nil, 0, fmt.Errorf("weightspace: need at least 2 classes, got %d", len(classes))
	}
	classIdx := map[string]int{}
	for i, c := range classes {
		classIdx[c] = i
	}

	dim := cfg.Embedder.Dim()
	ds := &data.Dataset{
		ID:         "weightspace/train",
		X:          tensor.NewMatrix(len(handles), dim),
		Y:          make([]int, len(handles)),
		NumClasses: len(classes),
	}
	for i, h := range handles {
		v, err := cfg.Embedder.Embed(h)
		if err != nil {
			return nil, 0, fmt.Errorf("weightspace: embed %s: %w", h.ID(), err)
		}
		copy(ds.X.Row(i), v)
		ds.Y[i] = classIdx[labels[i]]
	}
	net := nn.NewMLP([]int{dim, cfg.Hidden, len(classes)}, nn.ReLU, xrand.New(cfg.Seed))
	tc := nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: 8, LR: cfg.LR, Seed: cfg.Seed}
	if _, err := nn.Train(net, ds, tc); err != nil {
		return nil, 0, err
	}
	p := &Probe{classes: classes, net: net, emb: cfg.Embedder}
	return p, net.Accuracy(ds), nil
}

// Classes returns the label vocabulary in index order.
func (p *Probe) Classes() []string { return append([]string(nil), p.classes...) }

// Predict returns the predicted label for a model.
func (p *Probe) Predict(h *model.Handle) (string, error) {
	v, err := p.emb.Embed(h)
	if err != nil {
		return "", fmt.Errorf("weightspace: embed %s: %w", h.ID(), err)
	}
	return p.classes[p.net.Predict(v)], nil
}

// Accuracy evaluates the probe on labeled handles.
func (p *Probe) Accuracy(handles []*model.Handle, labels []string) (float64, error) {
	if len(handles) == 0 || len(handles) != len(labels) {
		return 0, fmt.Errorf("weightspace: need equal nonzero handles and labels")
	}
	correct := 0
	for i, h := range handles {
		got, err := p.Predict(h)
		if err != nil {
			return 0, err
		}
		if got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(handles)), nil
}

// MajorityBaseline returns the accuracy of always predicting the most common
// label — the floor every probe must beat.
func MajorityBaseline(labels []string) float64 {
	if len(labels) == 0 {
		return 0
	}
	counts := map[string]int{}
	best := 0
	for _, l := range labels {
		counts[l]++
		if counts[l] > best {
			best = counts[l]
		}
	}
	return float64(best) / float64(len(labels))
}

// LinearConnectivity measures Zhou et al.'s cross-task linearity between two
// same-architecture models: it interpolates their weights at the given
// resolution and reports the mean agreement between the interpolated model's
// predictions and the prediction interpolation of the endpoints, evaluated
// on eval. 1.0 means behaviour is linear along the weight path (typical for
// a base and its fine-tune); low values indicate unrelated models separated
// by loss barriers.
func LinearConnectivity(a, b *nn.MLP, eval *data.Dataset, steps int) (float64, error) {
	if !a.SameArchitecture(b) {
		return 0, fmt.Errorf("weightspace: architecture mismatch %s vs %s", a.ArchString(), b.ArchString())
	}
	if eval.Len() == 0 {
		return 0, fmt.Errorf("weightspace: empty eval dataset")
	}
	if steps < 1 {
		steps = 5
	}
	total, count := 0.0, 0
	for s := 1; s < steps; s++ {
		alpha := float64(s) / float64(steps)
		mid := a.Clone()
		for l := range mid.W {
			mid.W[l].Scale(1 - alpha)
			mid.W[l].AddScaled(alpha, b.W[l])
			mid.B[l].Scale(1 - alpha)
			mid.B[l].AddScaled(alpha, b.B[l])
		}
		for i := 0; i < eval.Len(); i++ {
			x, _ := eval.Example(i)
			pa := a.Probs(x)
			pb := b.Probs(x)
			blend := pa.Clone()
			blend.Scale(1 - alpha)
			blend.AddScaled(alpha, pb)
			if mid.Predict(x) == blend.ArgMax() {
				total++
			}
			count++
		}
	}
	return total / float64(count), nil
}
