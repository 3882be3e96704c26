package apps

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"modellake/internal/mlql"
	"modellake/internal/search"
)

// catalog adapts a View to the mlql.Catalog interface. It resolves each
// MLQL construct to the view capability that answers it: field predicates
// to registry/card metadata, TRAINED ON to declared history plus
// dataset-version closure, OUTPERFORMS to benchmark scores, and RANK BY to
// the corresponding search.
type catalog struct {
	v   View
	ctx context.Context
}

// Catalog returns the MLQL catalog over the view; its searches run under ctx.
func (a *Apps) Catalog(ctx context.Context) mlql.Catalog { return catalog{a.v, ctx} }

// Query parses and executes an MLQL query against the view.
func (a *Apps) Query(ctx context.Context, q string) (*mlql.Result, error) {
	return mlql.RunContext(ctx, q, a.Catalog(ctx))
}

// Candidates implements mlql.Catalog.
func (c catalog) Candidates() ([]mlql.Row, error) {
	recs, err := c.v.Records()
	if err != nil {
		return nil, err
	}
	rows := make([]mlql.Row, 0, len(recs))
	for _, rec := range recs {
		fields := map[string]string{
			"name": rec.Name,
			"arch": rec.Arch,
			"tag":  strings.Join(rec.Tags, " "),
		}
		if len(rec.DeclaredBases) > 0 {
			fields["base"] = rec.DeclaredBases[0]
		}
		if crd, err := c.v.Card(rec.ID); err == nil {
			fields["domain"] = crd.Domain
			fields["task"] = crd.Task
			if crd.Transform != "" {
				fields["transform"] = crd.Transform
			}
			if fields["base"] == "" {
				fields["base"] = crd.BaseModel
			}
		}
		if fields["domain"] == "" {
			fields["domain"] = rec.Domain
		}
		rows = append(rows, mlql.Row{ID: rec.ID, Fields: fields})
	}
	return rows, nil
}

// TrainedOn implements mlql.Catalog. Version closure follows the registered
// datasets' parent links in both directions, so "versions of legal/v1"
// covers legal/v1 itself, its derivations, and (transitively) their
// derivations.
func (c catalog) TrainedOn(dataset string, includeVersions bool) (map[string]bool, error) {
	family := map[string]bool{dataset: true}
	if includeVersions {
		lineage, err := c.v.DatasetLineage()
		if err != nil {
			return nil, err
		}
		// Repeated closure over parent links (small dataset counts).
		for changed := true; changed; {
			changed = false
			for id, parent := range lineage {
				if parent != "" && family[id] != family[parent] {
					family[id], family[parent], changed = true, true, true
				}
			}
		}
	}
	recs, err := c.v.Records()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, rec := range recs {
		if rec.DeclaredData != "" && family[rec.DeclaredData] {
			out[rec.ID] = true
		}
	}
	return out, nil
}

// resolve maps an MLQL model reference — an ID, or a name at its default
// version — to an ID.
func (c catalog) resolve(ref string) (string, error) {
	if _, err := c.v.Record(ref); err == nil {
		return ref, nil
	}
	id, err := c.v.Resolve(ref, "")
	if err != nil {
		return "", fmt.Errorf("unknown model %q", ref)
	}
	return id, nil
}

// Outperforms implements mlql.Catalog.
func (c catalog) Outperforms(modelRef, bench string) (map[string]bool, error) {
	id, err := c.resolve(modelRef)
	if err != nil {
		return nil, err
	}
	baseline, err := c.v.Score(id, bench)
	if err != nil {
		return nil, err
	}
	scores, err := c.scores(bench)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, h := range scores {
		if h.ID != id && h.Score > baseline {
			out[h.ID] = true
		}
	}
	return out, nil
}

// SimilarityRank implements mlql.Catalog, ranking the whole population.
func (c catalog) SimilarityRank(modelRef, space string) ([]mlql.Hit, error) {
	id, err := c.resolve(modelRef)
	if err != nil {
		return nil, err
	}
	if space == "cards" {
		crd, err := c.v.Card(id)
		if err != nil {
			return nil, fmt.Errorf("model %q has no card to rank by", id)
		}
		return c.TextRank(crd.Text())
	}
	return toMLQLHits(c.v.SearchByModelContext(c.ctx, id, space, c.v.Count()))
}

// TextRank implements mlql.Catalog.
func (c catalog) TextRank(text string) ([]mlql.Hit, error) {
	return toMLQLHits(c.v.SearchKeywordContext(c.ctx, text, c.v.Count()))
}

// BenchmarkRank implements mlql.Catalog: best score first, ties by ID.
func (c catalog) BenchmarkRank(bench string) ([]mlql.Hit, error) {
	out, err := c.scores(bench)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// scores is every model's score on bench in ID order, leaving out the
// models the benchmark cannot run on.
func (c catalog) scores(bench string) ([]mlql.Hit, error) {
	recs, err := c.v.Records()
	if err != nil {
		return nil, err
	}
	var out []mlql.Hit
	for _, rec := range recs {
		if s, err := c.v.Score(rec.ID, bench); err == nil {
			out = append(out, mlql.Hit{ID: rec.ID, Score: s})
		}
	}
	return out, nil
}

func toMLQLHits(hits []search.Hit, err error) ([]mlql.Hit, error) {
	if err != nil {
		return nil, err
	}
	out := make([]mlql.Hit, len(hits))
	for i, h := range hits {
		out[i] = mlql.Hit{ID: h.ID, Score: h.Score}
	}
	return out, nil
}
