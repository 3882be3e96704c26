package lake

import (
	"fmt"
	"sort"
	"strings"

	"modellake/internal/mlql"
	"modellake/internal/search"
)

// catalog adapts a Lake to the mlql.Catalog interface. The adapter resolves
// each MLQL construct to the lake capability that answers it: field
// predicates to registry/card metadata, TRAINED ON to declared history plus
// dataset-version closure, OUTPERFORMS to the benchmark runner, and RANK BY
// to the corresponding searcher.
type catalog Lake

func (c *catalog) lake() *Lake { return (*Lake)(c) }

// Candidates implements mlql.Catalog.
func (c *catalog) Candidates() ([]mlql.Row, error) {
	recs, err := c.lake().Records()
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
		if crd, err := c.lake().Card(rec.ID); err == nil {
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
func (c *catalog) TrainedOn(dataset string, includeVersions bool) (map[string]bool, error) {
	family := map[string]bool{dataset: true}
	if includeVersions {
		lineage, err := c.lake().DatasetLineage()
		if err != nil {
			return nil, err
		}
		// Repeated closure over parent links (small dataset counts).
		changed := true
		for changed {
			changed = false
			for id, parent := range lineage {
				if parent == "" {
					continue
				}
				if family[parent] && !family[id] {
					family[id] = true
					changed = true
				}
				if family[id] && !family[parent] {
					family[parent] = true
					changed = true
				}
			}
		}
	}
	recs, err := c.lake().Records()
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

// Outperforms implements mlql.Catalog.
func (c *catalog) Outperforms(modelRef, bench string) (map[string]bool, error) {
	l := c.lake()
	// Accept either a model ID or a name (resolved at version "1").
	id := modelRef
	if _, err := l.Record(id); err != nil {
		resolved, rerr := l.Resolve(modelRef, "")
		if rerr != nil {
			return nil, fmt.Errorf("unknown model %q", modelRef)
		}
		id = resolved
	}
	baseline, err := l.Score(id, bench)
	if err != nil {
		return nil, err
	}
	recs, err := l.Records()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, rec := range recs {
		if rec.ID == id {
			continue
		}
		s, err := l.Score(rec.ID, bench)
		if err != nil {
			continue
		}
		if s > baseline {
			out[rec.ID] = true
		}
	}
	return out, nil
}

// SimilarityRank implements mlql.Catalog.
func (c *catalog) SimilarityRank(modelRef, space string) ([]mlql.Hit, error) {
	l := c.lake()
	id := modelRef
	if _, err := l.Record(id); err != nil {
		resolved, rerr := l.Resolve(modelRef, "")
		if rerr != nil {
			return nil, fmt.Errorf("unknown model %q", modelRef)
		}
		id = resolved
	}
	if space == "cards" {
		crd, err := l.Card(id)
		if err != nil {
			return nil, fmt.Errorf("model %q has no card to rank by", id)
		}
		return toMLQLHits(l.SearchKeyword(crd.Text(), l.Count())), nil
	}
	hits, err := l.SearchByModel(id, space, l.Count())
	if err != nil {
		return nil, err
	}
	return toMLQLHits(hits), nil
}

// TextRank implements mlql.Catalog.
func (c *catalog) TextRank(text string) ([]mlql.Hit, error) {
	return toMLQLHits(c.lake().SearchKeyword(text, c.lake().Count())), nil
}

// BenchmarkRank implements mlql.Catalog.
func (c *catalog) BenchmarkRank(bench string) ([]mlql.Hit, error) {
	l := c.lake()
	recs, err := l.Records()
	if err != nil {
		return nil, err
	}
	var out []mlql.Hit
	for _, rec := range recs {
		s, err := l.Score(rec.ID, bench)
		if err != nil {
			continue
		}
		out = append(out, mlql.Hit{ID: rec.ID, Score: s})
	}
	// Best first, ties by ID.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

func toMLQLHits(hits []search.Hit) []mlql.Hit {
	out := make([]mlql.Hit, len(hits))
	for i, h := range hits {
		out[i] = mlql.Hit{ID: h.ID, Score: h.Score}
	}
	return out
}

// Compile-time conformance.
var _ mlql.Catalog = (*catalog)(nil)
