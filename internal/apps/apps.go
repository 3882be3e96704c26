// Package apps holds the lake's applications (§6) and its declarative-search
// catalog, written once over a View of a model population: the Model Graph
// reconstruction and its cache, documentation drafts, audits, citations and
// the MLQL catalog. A single lake and a sharded cluster both implement View,
// so a cluster answers these the way one node holding its population would,
// by construction rather than by a second implementation kept equal.
package apps

import (
	"context"
	"errors"
	"sync"

	"modellake/internal/audit"
	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/data"
	"modellake/internal/docgen"
	"modellake/internal/embedding"
	"modellake/internal/model"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/version"
)

// View is what the applications read of a population.
type View interface {
	// Records lists every model's registry record in ID order.
	Records() ([]*registry.Record, error)
	Record(id string) (*registry.Record, error)
	Resolve(name, ver string) (string, error)
	Card(id string) (*card.Card, error)
	Model(id string) (*model.Handle, error)
	Score(modelID, benchID string) (float64, error)
	DatasetLineage() (map[string]string, error)
	// Dataset returns a registered dataset's rows, or nil if none is held.
	Dataset(id string) *data.Dataset
	// Benchmarks lists the registered benchmarks sorted by ID.
	Benchmarks() []*benchmark.Benchmark
	Count() int
	SearchKeywordContext(ctx context.Context, query string, k int) ([]search.Hit, error)
	SearchByModelContext(ctx context.Context, id, space string, k int) ([]search.Hit, error)
	// Generation changes whenever the population does.
	Generation() uint64
}

// Apps runs the applications over one View. It is safe for concurrent use.
type Apps struct {
	v        View
	seed     uint64
	behavior *embedding.BehaviorEmbedder

	mu    sync.Mutex
	graph *version.Graph // cached reconstruction; valid while v's generation is gen
	gen   uint64
}

// New returns the applications over v. seed drives graph reconstruction and
// the weight-space probes; behavior embeds models for docgen's neighbour vote.
func New(v View, seed uint64, behavior *embedding.BehaviorEmbedder) *Apps {
	return &Apps{v: v, seed: seed, behavior: behavior}
}

// VersionGraph reconstructs (and caches) the directed Model Graph over every
// open-weights model in the view. The reconstruction is abandoned between
// models if ctx is canceled. A graph is cached under the generation it was
// built at, and only if the generation did not move while it was built: a
// graph built across a write may be missing the written model.
func (a *Apps) VersionGraph(ctx context.Context) (*version.Graph, error) {
	gen := a.v.Generation()
	a.mu.Lock()
	g := a.graph
	if a.gen != gen {
		g = nil
	}
	a.mu.Unlock()
	if g != nil {
		return g, nil
	}

	recs, err := a.v.Records()
	if err != nil {
		return nil, err
	}
	var nodes []version.Node
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, err := a.v.Model(rec.ID)
		if err != nil {
			continue
		}
		net, err := h.Network()
		if err != nil {
			continue
		}
		nodes = append(nodes, version.Node{ID: rec.ID, Net: net})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g = &version.Graph{}
	if len(nodes) > 0 {
		if g, err = version.Reconstruct(nodes, version.Config{ClassifyEdges: true, Seed: a.seed}); err != nil {
			return nil, err
		}
	}
	if a.v.Generation() == gen {
		a.mu.Lock()
		a.graph, a.gen = g, gen
		a.mu.Unlock()
	}
	return g, nil
}

// Draft drafts documentation for a model from the population's analyses.
func (a *Apps) Draft(ctx context.Context, modelID string) (*docgen.Draft, error) {
	h, err := a.v.Model(modelID)
	if err != nil {
		return nil, err
	}
	existing, err := a.v.Card(modelID)
	if err != nil && !errors.Is(err, registry.ErrNotFound) {
		return nil, err
	}
	g, err := a.VersionGraph(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gen := &docgen.Generator{
		Peers: a.peers(),
		Graph: g,
		Score: func(h *model.Handle, b *benchmark.Benchmark) (float64, error) {
			return a.v.Score(h.ID(), b.ID)
		},
		Benchmarks: a.v.Benchmarks(),
		Behavior:   a.behavior,
		ProbeSeed:  a.seed + 2,
	}
	return gen.Draft(h, existing)
}

// peers is every loadable model of the view with its card, in ID order.
func (a *Apps) peers() []docgen.Peer {
	recs, _ := a.v.Records()
	var out []docgen.Peer
	for _, rec := range recs {
		h, err := a.v.Model(rec.ID)
		if err != nil {
			continue
		}
		c, err := a.v.Card(rec.ID)
		if err != nil {
			c = nil
		}
		out = append(out, docgen.Peer{Handle: h, Card: c})
	}
	return out
}

// Audit runs the compliance audit for a model. flagged maps known-risky
// model IDs to reasons; risk propagates over the *recovered* version graph.
func (a *Apps) Audit(ctx context.Context, modelID string, flagged map[string]string) (*audit.Report, error) {
	c, err := a.v.Card(modelID)
	if err != nil {
		c = nil
	}
	g, err := a.VersionGraph(ctx)
	if err != nil {
		return nil, err
	}
	var docFlags []string
	if draft, err := a.Draft(ctx, modelID); err == nil {
		docFlags = draft.Flags
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Behavioural verification of the declared training data, when the
	// claimed dataset is registered with the lake.
	var claim audit.ClaimCheck
	if c != nil && c.TrainingData != "" {
		if ds := a.v.Dataset(c.TrainingData); ds != nil {
			if h, err := a.v.Model(modelID); err == nil {
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

// Cite produces a version-graph-anchored citation for a model. Its snapshot
// is the model record's sequence number in the store that holds it.
func (a *Apps) Cite(ctx context.Context, modelID string) (provenance.Citation, error) {
	rec, err := a.v.Record(modelID)
	if err != nil {
		return provenance.Citation{}, err
	}
	g, err := a.VersionGraph(ctx)
	if err != nil {
		return provenance.Citation{}, err
	}
	return provenance.Cite(rec.ID, rec.Name, rec.Version, g, rec.Seq), nil
}
