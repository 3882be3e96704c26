package lake

import (
	"context"
	"errors"
	"fmt"

	"modellake/internal/attribution"
	"modellake/internal/audit"
	"modellake/internal/data"
	"modellake/internal/docgen"
	"modellake/internal/embedding"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/tensor"
	"modellake/internal/version"
)

// VersionGraph reconstructs (and caches) the directed Model Graph over every
// open-weights model in the lake.
func (l *Lake) VersionGraph() (*version.Graph, error) {
	return l.VersionGraphContext(context.Background())
}

// VersionGraphContext is VersionGraph honoring a request context: the
// reconstruction is abandoned between models if ctx is canceled, so a slow
// graph build cannot outlive its HTTP request. A graph is cached only if no
// model was registered while it was built: one that was may be missing from
// it, and commit's clear of the slot has already happened.
func (l *Lake) VersionGraphContext(ctx context.Context) (*version.Graph, error) {
	l.mu.RLock()
	g, gen := l.graph, l.gen
	l.mu.RUnlock()
	if g != nil {
		return g, nil
	}

	recs, err := l.reg.List()
	if err != nil {
		return nil, err
	}
	var nodes []version.Node
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, err := l.Model(rec.ID)
		if err != nil {
			continue
		}
		net, err := h.Network()
		if err != nil {
			continue
		}
		nodes = append(nodes, version.Node{ID: rec.ID, Net: net})
	}
	if len(nodes) == 0 {
		return &version.Graph{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err = version.Reconstruct(nodes, version.Config{ClassifyEdges: true, Seed: l.cfg.Seed})
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.gen == gen {
		l.graph = g
	}
	l.mu.Unlock()
	return g, nil
}

// Attribute computes gradient-influence attribution of the model's behaviour
// at (x, y) over the given training dataset.
func (l *Lake) Attribute(modelID string, train *data.Dataset, x tensor.Vector, y int) ([]float64, error) {
	h, err := l.Model(modelID)
	if err != nil {
		return nil, err
	}
	net, err := h.Network()
	if err != nil {
		return nil, fmt.Errorf("lake: attribution needs intrinsics: %w", err)
	}
	return attribution.GradientInfluence(net, train, x, y)
}

// GenerateCard drafts documentation for a model from lake analyses.
func (l *Lake) GenerateCard(modelID string) (*docgen.Draft, error) {
	return l.GenerateCardContext(context.Background(), modelID)
}

// GenerateCardContext is GenerateCard honoring a request context.
func (l *Lake) GenerateCardContext(ctx context.Context, modelID string) (*docgen.Draft, error) {
	h, err := l.Model(modelID)
	if err != nil {
		return nil, err
	}
	existing, err := l.Card(modelID)
	if err != nil && !errors.Is(err, registry.ErrNotFound) {
		return nil, err
	}
	g, err := l.VersionGraphContext(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gen := &docgen.Generator{
		Peers:      l.peers(),
		Graph:      g,
		Runner:     l.runner,
		Benchmarks: l.Benchmarks(),
		Behavior:   embedding.NewBehaviorEmbedder(l.cfg.InputDim, l.cfg.Probes, l.cfg.MaxClasses, l.cfg.Seed),
		ProbeSeed:  l.cfg.Seed + 2,
	}
	return gen.Draft(h, existing)
}

func (l *Lake) peers() []docgen.Peer {
	recs, _ := l.reg.List()
	var out []docgen.Peer
	for _, rec := range recs {
		h, err := l.Model(rec.ID)
		if err != nil {
			continue
		}
		c, err := l.Card(rec.ID)
		if err != nil {
			c = nil
		}
		out = append(out, docgen.Peer{Handle: h, Card: c})
	}
	return out
}

// Audit runs the compliance audit for a model. flagged maps known-risky
// model IDs to reasons; risk propagates over the *recovered* version graph.
func (l *Lake) Audit(modelID string, flagged map[string]string) (*audit.Report, error) {
	return l.AuditContext(context.Background(), modelID, flagged)
}

// AuditContext is Audit honoring a request context.
func (l *Lake) AuditContext(ctx context.Context, modelID string, flagged map[string]string) (*audit.Report, error) {
	c, err := l.Card(modelID)
	if err != nil {
		c = nil
	}
	g, err := l.VersionGraphContext(ctx)
	if err != nil {
		return nil, err
	}
	var docFlags []string
	if draft, err := l.GenerateCardContext(ctx, modelID); err == nil {
		docFlags = draft.Flags
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Behavioural verification of the declared training data, when the
	// claimed dataset is registered with the lake.
	var claim audit.ClaimCheck
	if c != nil && c.TrainingData != "" {
		l.mu.RLock()
		ds := l.datasets[c.TrainingData]
		l.mu.RUnlock()
		if ds != nil {
			if h, err := l.Model(modelID); err == nil {
				if verdict, acc, err := docgen.VerifyTrainingClaim(h, ds); err == nil {
					claim = audit.ClaimCheck{Claim: c.TrainingData, Verdict: string(verdict), Evidence: acc}
				}
			}
		}
	}
	return audit.Run(audit.Input{
		ModelID:       modelID,
		Card:          c,
		Graph:         g,
		Flagged:       flagged,
		MembershipAUC: -1,
		DocFlags:      docFlags,
		TrainingClaim: claim,
	}), nil
}

// Cite produces a version-graph-anchored citation for a model.
func (l *Lake) Cite(modelID string) (provenance.Citation, error) {
	rec, err := l.reg.Get(modelID)
	if err != nil {
		return provenance.Citation{}, err
	}
	g, err := l.VersionGraph()
	if err != nil {
		return provenance.Citation{}, err
	}
	return provenance.Cite(rec.ID, rec.Name, rec.Version, g, rec.Seq), nil
}
