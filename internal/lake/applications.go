package lake

import (
	"context"

	"modellake/internal/apps"
	"modellake/internal/audit"
	"modellake/internal/docgen"
	"modellake/internal/embedding"
	"modellake/internal/mlql"
	"modellake/internal/provenance"
	"modellake/internal/version"
)

// NewApplications returns the §6 applications and MLQL catalog over v, with
// the seed and behavioural probe space a lake opened with cfg uses, so a
// population view built from cfg answers them like that lake would.
func NewApplications(v apps.View, cfg Config) *apps.Apps {
	cfg = cfg.withDefaults()
	return apps.New(v, cfg.Seed,
		embedding.NewBehaviorEmbedder(cfg.InputDim, cfg.Probes, cfg.MaxClasses, cfg.Seed))
}

// Generation is the lake's population generation: it changes with every
// commit that registers a model.
func (l *Lake) Generation() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// Catalog exposes the lake's MLQL catalog.
func (l *Lake) Catalog() mlql.Catalog { return l.apps.Catalog(context.Background()) }

// VersionGraphContext reconstructs (and caches) the directed Model Graph
// over every open-weights model in the lake; see apps.Apps.VersionGraph.
func (l *Lake) VersionGraphContext(ctx context.Context) (*version.Graph, error) {
	return l.apps.VersionGraph(ctx)
}

// GenerateCardContext drafts documentation for a model from lake analyses.
func (l *Lake) GenerateCardContext(ctx context.Context, modelID string) (*docgen.Draft, error) {
	return l.apps.Draft(ctx, modelID)
}

// AuditContext runs the compliance audit for a model. flagged maps
// known-risky model IDs to reasons; risk propagates over the *recovered*
// version graph.
func (l *Lake) AuditContext(ctx context.Context, modelID string, flagged map[string]string) (*audit.Report, error) {
	return l.apps.Audit(ctx, modelID, flagged)
}

// Cite produces a version-graph-anchored citation for a model.
func (l *Lake) Cite(modelID string) (provenance.Citation, error) {
	return l.apps.Cite(context.Background(), modelID)
}
