// Package embedding turns models and documents into fixed-dimension vectors,
// the representation the lake's indexer (paper §5) searches over. Three
// embedders cover the paper's three viewpoints:
//
//   - WeightEmbedder (intrinsic): per-layer weight statistics concatenated
//     with a Johnson–Lindenstrauss random-projection sketch of θ. Models
//     with different architectures embed into the same space because the
//     sketch folds arbitrary-length parameter vectors. The sketch costs
//     SketchDim multiply-adds per parameter; only a model with more than
//     4096 parameters is folded (copied) first.
//
//   - BehaviorEmbedder (extrinsic): the model's output distributions on a
//     shared probe set — p_θ observed through the API only, usable even for
//     closed-weights models.
//
//   - CardEmbedder (documentation): a hashed TF-IDF-style bag of words over
//     the model card text.
//
// HybridEmbedder concatenates any of the above with weights, the "hybrid
// metadata + model embeddings" approach §5 advocates.
package embedding

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"modellake/internal/data"
	"modellake/internal/model"
	"modellake/internal/tensor"
)

// ErrViewUnavailable reports that a model does not expose the viewpoint an
// embedder requires.
var ErrViewUnavailable = errors.New("embedding: required viewpoint unavailable")

// Embedder maps a model handle to a fixed-dimension vector.
type Embedder interface {
	// Name identifies the embedder (used in experiment tables).
	Name() string
	// Dim is the embedding dimensionality.
	Dim() int
	// Embed computes the vector for the model. Implementations must return
	// an error wrapping ErrViewUnavailable when the needed viewpoint is
	// withheld.
	Embed(h *model.Handle) (tensor.Vector, error)
}

// statsPerLayer is the number of summary statistics emitted per layer slot.
const statsPerLayer = 5

// WeightEmbedder embeds the intrinsic viewpoint (f*, θ).
type WeightEmbedder struct {
	// SketchDim is the dimension of the random-projection sketch.
	SketchDim int
	// LayerSlots is the number of layers summarized; deeper models fold
	// extra layers into the last slot, shallower models zero-pad.
	LayerSlots int
	proj       *tensor.RandomProjection
}

// NewWeightEmbedder constructs the embedder with a deterministic projection
// derived from seed, so embeddings are comparable across processes.
func NewWeightEmbedder(sketchDim, layerSlots int, seed uint64) *WeightEmbedder {
	if sketchDim <= 0 {
		sketchDim = 32
	}
	if layerSlots <= 0 {
		layerSlots = 4
	}
	return &WeightEmbedder{
		SketchDim:  sketchDim,
		LayerSlots: layerSlots,
		proj:       tensor.NewRandomProjection(4096, sketchDim, seed),
	}
}

// Name implements Embedder.
func (e *WeightEmbedder) Name() string { return "weight" }

// Dim implements Embedder.
func (e *WeightEmbedder) Dim() int { return e.LayerSlots*statsPerLayer + e.SketchDim }

// Embed implements Embedder.
func (e *WeightEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	net, err := h.Network()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrViewUnavailable, err)
	}
	out := make(tensor.Vector, 0, e.Dim())
	for slot := 0; slot < e.LayerSlots; slot++ {
		var layerData []float64
		if slot == e.LayerSlots-1 {
			// Fold this and all deeper layers into the final slot so models
			// deeper than LayerSlots still embed fully.
			for l := slot; l < net.LayerCount(); l++ {
				layerData = append(layerData, net.W[l].Data...)
			}
		} else if slot < net.LayerCount() {
			layerData = net.W[slot].Data
		}
		s := tensor.Summarize(layerData)
		out = append(out, s.Mean, math.Sqrt(s.Variance), s.Kurtosis, s.AbsMean, s.Max-s.Min)
	}
	sketch := e.proj.Apply(net.FlattenWeights())
	out = append(out, sketch...)
	return out, nil
}

// BehaviorEmbedder embeds the extrinsic viewpoint p_θ by probing the model
// with a shared, deterministic probe set and concatenating the output
// distributions. Models with mismatched input dimension cannot be probed and
// return an error; output distributions shorter than MaxClasses are
// zero-padded so heterogeneous models share the space.
type BehaviorEmbedder struct {
	Probes     tensor.Matrix
	MaxClasses int
}

// NewBehaviorEmbedder builds an embedder probing with nProbes points of the
// given input dimension.
func NewBehaviorEmbedder(inputDim, nProbes, maxClasses int, seed uint64) *BehaviorEmbedder {
	if maxClasses <= 0 {
		maxClasses = 8
	}
	return &BehaviorEmbedder{
		Probes:     data.ProbeSet(inputDim, nProbes, seed),
		MaxClasses: maxClasses,
	}
}

// Name implements Embedder.
func (e *BehaviorEmbedder) Name() string { return "behavior" }

// Dim implements Embedder.
func (e *BehaviorEmbedder) Dim() int { return e.Probes.Rows * e.MaxClasses }

// Embed implements Embedder.
func (e *BehaviorEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	in, err := h.InputDim()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrViewUnavailable, err)
	}
	if in != e.Probes.Cols {
		return nil, fmt.Errorf("embedding: model input dim %d != probe dim %d", in, e.Probes.Cols)
	}
	outDim, err := h.OutputDim()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrViewUnavailable, err)
	}
	if outDim > e.MaxClasses {
		return nil, fmt.Errorf("embedding: model has %d classes > max %d", outDim, e.MaxClasses)
	}
	out := make(tensor.Vector, 0, e.Dim())
	for i := 0; i < e.Probes.Rows; i++ {
		p, err := h.Probs(e.Probes.Row(i))
		if err != nil {
			return nil, err
		}
		out = append(out, p...)
		for j := outDim; j < e.MaxClasses; j++ {
			out = append(out, 0)
		}
	}
	return out, nil
}

// HashTextVector embeds text into dim buckets with the hashing trick,
// L2-normalized. Used by CardEmbedder and by MLQL text predicates.
func HashTextVector(text string, dim int) tensor.Vector {
	v := tensor.NewVector(dim)
	for _, tok := range data.Tokenize(text) {
		h := fnv.New32a()
		h.Write([]byte(tok))
		v[int(h.Sum32())%dim]++
	}
	// Dampen high-frequency tokens (sqrt-TF) then normalize.
	for i, x := range v {
		v[i] = math.Sqrt(x)
	}
	v.Normalize()
	return v
}

// CardEmbedder embeds the documentation viewpoint: a hashed bag of words of
// the model card text. It needs access to the card, which the lake supplies
// through the lookup function (the embedder itself stays storage-agnostic).
type CardEmbedder struct {
	DimBuckets int
	Lookup     func(modelID string) (string, error) // returns card text
}

// Name implements Embedder.
func (e *CardEmbedder) Name() string { return "card" }

// Dim implements Embedder.
func (e *CardEmbedder) Dim() int { return e.DimBuckets }

// Embed implements Embedder.
func (e *CardEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	if e.Lookup == nil {
		return nil, fmt.Errorf("embedding: CardEmbedder has no lookup")
	}
	text, err := e.Lookup(h.ID())
	if err != nil {
		return nil, fmt.Errorf("embedding: card text for %s: %w", h.ID(), err)
	}
	return HashTextVector(text, e.DimBuckets), nil
}

// HybridEmbedder concatenates sub-embeddings, each L2-normalized then scaled
// by its weight. Sub-embedders whose viewpoint is unavailable contribute a
// zero block when Lenient is set (so closed models can still be indexed by
// their remaining viewpoints); otherwise the error propagates.
type HybridEmbedder struct {
	Parts   []Embedder
	Weights []float64
	Lenient bool
}

// Name implements Embedder.
func (e *HybridEmbedder) Name() string {
	s := "hybrid("
	for i, p := range e.Parts {
		if i > 0 {
			s += "+"
		}
		s += p.Name()
	}
	return s + ")"
}

// Dim implements Embedder.
func (e *HybridEmbedder) Dim() int {
	d := 0
	for _, p := range e.Parts {
		d += p.Dim()
	}
	return d
}

// Embed implements Embedder.
func (e *HybridEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	if len(e.Weights) != 0 && len(e.Weights) != len(e.Parts) {
		return nil, fmt.Errorf("embedding: %d weights for %d parts", len(e.Weights), len(e.Parts))
	}
	out := make(tensor.Vector, 0, e.Dim())
	for i, p := range e.Parts {
		v, err := p.Embed(h)
		if err != nil {
			if e.Lenient && errors.Is(err, ErrViewUnavailable) {
				out = append(out, make(tensor.Vector, p.Dim())...)
				continue
			}
			return nil, err
		}
		if len(v) != p.Dim() {
			return nil, fmt.Errorf("embedding: %s emitted %d dims, declared %d", p.Name(), len(v), p.Dim())
		}
		v = v.Clone()
		v.Normalize()
		w := 1.0
		if len(e.Weights) > 0 {
			w = e.Weights[i]
		}
		v.Scale(w)
		out = append(out, v...)
	}
	return out, nil
}
