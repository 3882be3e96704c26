package nn

import (
	"fmt"
	"math"

	"modellake/internal/data"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// Grads accumulates parameter gradients with the same shapes as an MLP.
type Grads struct {
	W []tensor.Matrix
	B []tensor.Vector
}

// NewGrads allocates zero gradients matching m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{W: make([]tensor.Matrix, len(m.W)), B: make([]tensor.Vector, len(m.B))}
	for l := range m.W {
		g.W[l] = tensor.NewMatrix(m.W[l].Rows, m.W[l].Cols)
		g.B[l] = tensor.NewVector(len(m.B[l]))
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.W {
		g.W[l].Zero()
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// Flatten returns the gradients as one vector in FlattenWeights order.
func (g *Grads) Flatten() tensor.Vector {
	n := 0
	for l := range g.W {
		n += len(g.W[l].Data) + len(g.B[l])
	}
	out := make(tensor.Vector, 0, n)
	for l := range g.W {
		out = append(out, g.W[l].Data...)
		out = append(out, g.B[l]...)
	}
	return out
}

// Backward accumulates the gradient of the cross-entropy loss at (x, y) into
// g and returns the example loss. The model itself is not modified.
func (m *MLP) Backward(x tensor.Vector, y int, g *Grads) float64 {
	L := len(m.W)
	// Forward pass keeping all activations. acts[0] = x, acts[l] is the
	// activated output of layer l-1 (or the raw logits for the final layer).
	acts := make([]tensor.Vector, L+1)
	acts[0] = x
	for l := 0; l < L; l++ {
		next := tensor.NewVector(m.Sizes[l+1])
		m.W[l].MatVec(next, acts[l])
		next.AddScaled(1, m.B[l])
		if l < L-1 {
			m.activate(next)
		}
		acts[l+1] = next
	}
	probs := acts[L].Clone()
	Softmax(probs)
	loss := CrossEntropy(probs, y)

	// delta = dL/dz for the output layer: probs - onehot(y).
	delta := probs
	delta[y] -= 1

	for l := L - 1; l >= 0; l-- {
		g.W[l].AddOuter(1, delta, acts[l])
		g.B[l].AddScaled(1, delta)
		if l == 0 {
			break
		}
		prev := tensor.NewVector(m.Sizes[l])
		m.W[l].MatVecT(prev, delta)
		dphi := tensor.NewVector(m.Sizes[l])
		m.activateGrad(acts[l], dphi)
		for i := range prev {
			prev[i] *= dphi[i]
		}
		delta = prev
	}
	return loss
}

// GradVector returns the flattened gradient of the loss at a single example —
// the quantity dotted by gradient-influence attribution.
func (m *MLP) GradVector(x tensor.Vector, y int) tensor.Vector {
	g := NewGrads(m)
	m.Backward(x, y, g)
	return g.Flatten()
}

// InputGradient returns ∂L/∂x for the cross-entropy loss at (x, y) — the
// saliency map used by sensitivity-analysis attribution.
func (m *MLP) InputGradient(x tensor.Vector, y int) tensor.Vector {
	L := len(m.W)
	acts := make([]tensor.Vector, L+1)
	acts[0] = x
	for l := 0; l < L; l++ {
		next := tensor.NewVector(m.Sizes[l+1])
		m.W[l].MatVec(next, acts[l])
		next.AddScaled(1, m.B[l])
		if l < L-1 {
			m.activate(next)
		}
		acts[l+1] = next
	}
	probs := acts[L].Clone()
	Softmax(probs)
	delta := probs
	delta[y] -= 1
	for l := L - 1; l >= 0; l-- {
		prev := tensor.NewVector(m.Sizes[l])
		m.W[l].MatVecT(prev, delta)
		if l > 0 {
			dphi := tensor.NewVector(m.Sizes[l])
			m.activateGrad(acts[l], dphi)
			for i := range prev {
				prev[i] *= dphi[i]
			}
		}
		delta = prev
	}
	return delta
}

// ForwardFromHidden resumes the forward pass from an (possibly edited)
// activation vector at hidden layer `layer` (0-based, as returned by
// HiddenActivations) and returns the resulting logits. It is the hook for
// representation-engineering interventions: read an activation, steer it,
// and observe the behavioural consequence.
func (m *MLP) ForwardFromHidden(layer int, h tensor.Vector) (tensor.Vector, error) {
	if layer < 0 || layer >= m.LayerCount()-1 {
		return nil, fmt.Errorf("nn: hidden layer %d out of range [0,%d)", layer, m.LayerCount()-1)
	}
	if len(h) != m.Sizes[layer+1] {
		return nil, fmt.Errorf("nn: activation length %d != layer width %d", len(h), m.Sizes[layer+1])
	}
	cur := h
	for l := layer + 1; l < m.LayerCount(); l++ {
		next := tensor.NewVector(m.Sizes[l+1])
		m.W[l].MatVec(next, cur)
		next.AddScaled(1, m.B[l])
		if l < m.LayerCount()-1 {
			m.activate(next)
		}
		cur = next
	}
	return cur, nil
}

// HiddenActivations returns the activation vector after each hidden layer
// for input x — the representations probed by interpretability analyses.
func (m *MLP) HiddenActivations(x tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, 0, m.LayerCount()-1)
	cur := x
	for l := 0; l < m.LayerCount()-1; l++ {
		next := tensor.NewVector(m.Sizes[l+1])
		m.W[l].MatVec(next, cur)
		next.AddScaled(1, m.B[l])
		m.activate(next)
		out = append(out, next)
		cur = next
	}
	return out
}

// Optimizer applies accumulated (mean) gradients to a model.
type Optimizer interface {
	// Step applies the gradient g (already averaged over the batch) to m.
	Step(m *MLP, g *Grads)
	// Name identifies the optimizer for history records.
	Name() string
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      *Grads
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(m *MLP, g *Grads) {
	if s.Momentum == 0 {
		for l := range m.W {
			m.W[l].AddScaled(-s.LR, g.W[l])
			m.B[l].AddScaled(-s.LR, g.B[l])
		}
		return
	}
	if s.vel == nil {
		s.vel = NewGrads(m)
	}
	for l := range m.W {
		s.vel.W[l].Scale(s.Momentum)
		s.vel.W[l].AddScaled(1, g.W[l])
		s.vel.B[l].Scale(s.Momentum)
		s.vel.B[l].AddScaled(1, g.B[l])
		m.W[l].AddScaled(-s.LR, s.vel.W[l])
		m.B[l].AddScaled(-s.LR, s.vel.B[l])
	}
}

// Adam is the Adam optimizer with standard defaults.
type Adam struct {
	LR             float64
	Beta1, Beta2   float64
	Eps            float64
	t              int
	mMoments, vMom *Grads
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
func (a *Adam) Step(m *MLP, g *Grads) {
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.mMoments == nil {
		a.mMoments = NewGrads(m)
		a.vMom = NewGrads(m)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	update := func(p, grad, mm, vv []float64) {
		for i := range p {
			mm[i] = a.Beta1*mm[i] + (1-a.Beta1)*grad[i]
			vv[i] = a.Beta2*vv[i] + (1-a.Beta2)*grad[i]*grad[i]
			mhat := mm[i] / bc1
			vhat := vv[i] / bc2
			p[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
	for l := range m.W {
		update(m.W[l].Data, g.W[l].Data, a.mMoments.W[l].Data, a.vMom.W[l].Data)
		update(m.B[l], g.B[l], a.mMoments.B[l], a.vMom.B[l])
	}
}

// TrainConfig describes a training run — together with the dataset ID it is
// the model's History (D, A) in the paper's terms.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	L2        float64 // weight decay coefficient
	Momentum  float64
	Optimizer string // "sgd" (default) or "adam"
	Seed      uint64 // shuffling seed
}

// DefaultTrainConfig returns a configuration that trains small models to high
// accuracy on the synthetic domains in milliseconds.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 16, LR: 0.05, Seed: 1}
}

func (c TrainConfig) optimizer() (Optimizer, error) {
	switch c.Optimizer {
	case "", "sgd":
		return &SGD{LR: c.LR, Momentum: c.Momentum}, nil
	case "adam":
		return &Adam{LR: c.LR}, nil
	}
	return nil, fmt.Errorf("nn: unknown optimizer %q", c.Optimizer)
}

// Train runs mini-batch training of m on ds in place and returns the final
// mean training loss. Training is fully deterministic given cfg.Seed.
func Train(m *MLP, ds *data.Dataset, cfg TrainConfig) (float64, error) {
	if ds.Len() == 0 {
		return 0, fmt.Errorf("nn: empty dataset %q", ds.ID)
	}
	if ds.Dim() != m.InputDim() {
		return 0, fmt.Errorf("nn: dataset dim %d != model input %d", ds.Dim(), m.InputDim())
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	opt, err := cfg.optimizer()
	if err != nil {
		return 0, err
	}
	rng := xrand.New(cfg.Seed)
	g := NewGrads(m)
	lastLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(ds.Len())
		total := 0.0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			g.Zero()
			for _, idx := range perm[start:end] {
				x, y := ds.Example(idx)
				total += m.Backward(x, y, g)
			}
			inv := 1.0 / float64(end-start)
			for l := range g.W {
				g.W[l].Scale(inv)
				g.B[l].Scale(inv)
				if cfg.L2 > 0 {
					g.W[l].AddScaled(cfg.L2, m.W[l])
				}
			}
			opt.Step(m, g)
		}
		lastLoss = total / float64(ds.Len())
	}
	return lastLoss, nil
}

// Accuracy returns the fraction of ds the model classifies correctly.
func (m *MLP) Accuracy(ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.Example(i)
		if m.Predict(x) == y {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}
