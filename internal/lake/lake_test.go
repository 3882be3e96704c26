package lake

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"time"

	"modellake/internal/benchmark"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/version"
)

// fill ingests a generated population into a lake, registering datasets and
// one benchmark per base domain. Returns member-index → lake ID.
func fill(t *testing.T, l *Lake, pop *lakegen.Population) map[int]string {
	t.Helper()
	for _, ds := range pop.Datasets {
		l.RegisterDataset(ds)
	}
	ids := map[int]string{}
	for i, m := range pop.Members {
		rec, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{
			Name: m.Truth.Name, Version: "1",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			l.RegisterBenchmark(&benchmark.Benchmark{
				ID:     "bench-" + m.Truth.Domain,
				DS:     pop.Datasets[m.Truth.DatasetID],
				Metric: benchmark.MetricAccuracy,
			})
		}
	}
	return ids
}

func population(t *testing.T, seed uint64) *lakegen.Population {
	t.Helper()
	s := lakegen.DefaultSpec(seed)
	s.NumBases = 3
	s.ChildrenPerBase = 4
	pop, err := lakegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestEndToEndPipeline(t *testing.T) {
	// The Figure 2 walk: ingest → index → search → ranked models → version
	// graph → docgen → citation → audit.
	l, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 401)
	ids := fill(t, l, pop)
	if l.Count() != len(pop.Members) {
		t.Fatalf("Count = %d, want %d", l.Count(), len(pop.Members))
	}

	// Keyword search finds documented legal models.
	hits := l.SearchKeyword("legal statute court", 5)
	if len(hits) == 0 {
		t.Fatal("keyword search found nothing")
	}

	// Model-as-query search returns same-family models first.
	var legalBase int
	for i, m := range pop.Members {
		if m.Truth.Depth == 0 && m.Truth.Domain == "legal" {
			legalBase = i
		}
	}
	related, err := l.SearchByModel(ids[legalBase], "behavior", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(related) == 0 {
		t.Fatal("related-model search found nothing")
	}

	// Task search: the best model for legal data is from the legal family.
	legalDS := pop.Datasets[pop.Members[legalBase].Truth.DatasetID]
	taskHits, err := l.SearchTask(search.DatasetAsTask(legalDS, 16), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(taskHits) == 0 {
		t.Fatal("task search found nothing")
	}

	// Version graph covers all models.
	g, err := l.VersionGraphContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != len(pop.Members) {
		t.Fatalf("graph has %d nodes, want %d", len(g.Nodes), len(pop.Members))
	}

	// Citation is stable until the lake changes.
	c1, err := l.Cite(ids[legalBase])
	if err != nil {
		t.Fatal(err)
	}
	c2, err := l.Cite(ids[legalBase])
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("citation not stable")
	}
	if !strings.Contains(c1.String(), "legal-base") {
		t.Fatalf("citation = %q", c1.String())
	}

	// Docgen drafts a card for a model.
	draft, err := l.GenerateCardContext(context.Background(), ids[legalBase])
	if err != nil {
		t.Fatal(err)
	}
	if draft.Card.Architecture == "" {
		t.Fatal("draft missing architecture")
	}

	// Audit runs cleanly.
	rep, err := l.AuditContext(context.Background(), ids[legalBase], nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelID != ids[legalBase] {
		t.Fatal("audit wrong model")
	}
}

func TestIngestInvalidatesGraphAndCitation(t *testing.T) {
	l, err := Open(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 402)
	ids := fill(t, l, pop)
	c1, err := l.Cite(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// Ingest one more model: the graph (and hence citations) must change.
	extra := population(t, 403)
	if _, err := l.Ingest(extra.Members[0].Model, extra.Members[0].Card,
		registry.RegisterOptions{Name: "late-arrival"}); err != nil {
		t.Fatal(err)
	}
	c2, err := l.Cite(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if c1.GraphHash == c2.GraphHash {
		t.Fatal("citation hash unchanged after lake update")
	}
}

func TestQueryTrainedOn(t *testing.T) {
	l, err := Open(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 404)
	ids := fill(t, l, pop)

	// Ground truth: members whose card (declared data) names the base
	// legal dataset or a version of it.
	var base *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 && m.Truth.Domain == "legal" {
			base = m
		}
	}
	res, err := l.Query(fmt.Sprintf("FIND MODELS WHERE TRAINED ON DATASET '%s'", base.Truth.DatasetID))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, h := range res.Hits {
		found[h.ID] = true
	}
	for i, m := range pop.Members {
		declared := m.Card.TrainingData == base.Truth.DatasetID
		if declared && !found[ids[i]] {
			t.Fatalf("member %d declared-trained on %s but missing", i, base.Truth.DatasetID)
		}
		if !declared && found[ids[i]] {
			t.Fatalf("member %d not trained on %s but returned", i, base.Truth.DatasetID)
		}
	}

	// VERSIONS OF must be a superset.
	resV, err := l.Query(fmt.Sprintf("FIND MODELS WHERE TRAINED ON VERSIONS OF DATASET '%s'", base.Truth.DatasetID))
	if err != nil {
		t.Fatal(err)
	}
	if len(resV.Hits) < len(res.Hits) {
		t.Fatalf("VERSIONS OF returned fewer hits (%d) than exact (%d)", len(resV.Hits), len(res.Hits))
	}
}

func TestQueryOutperforms(t *testing.T) {
	l, err := Open(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 405)
	ids := fill(t, l, pop)
	var base *lakegen.Member
	var baseIdx int
	for i, m := range pop.Members {
		if m.Truth.Depth == 0 && m.Truth.Domain == "medical" {
			base, baseIdx = m, i
		}
	}
	bench := "bench-" + base.Truth.Domain
	q := fmt.Sprintf("FIND MODELS WHERE OUTPERFORMS MODEL '%s' ON BENCHMARK '%s'", ids[baseIdx], bench)
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// Verify every returned model really does score higher.
	baseScore, err := l.Score(ids[baseIdx], bench)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		s, err := l.Score(h.ID, bench)
		if err != nil {
			t.Fatal(err)
		}
		if s <= baseScore {
			t.Fatalf("%s returned but scores %v <= %v", h.ID, s, baseScore)
		}
	}
}

func TestQueryRankBySimilarity(t *testing.T) {
	l, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 406)
	ids := fill(t, l, pop)
	q := fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s' USING BEHAVIOR LIMIT 3", ids[0])
	res, err := l.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 {
		t.Fatalf("hits = %v", res.Hits)
	}
}

func TestQueryDomainFilter(t *testing.T) {
	l, err := Open(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 407)
	ids := fill(t, l, pop)
	res, err := l.Query("FIND MODELS WHERE DOMAIN = 'legal'")
	if err != nil {
		t.Fatal(err)
	}
	returned := map[string]bool{}
	for _, h := range res.Hits {
		returned[h.ID] = true
	}
	for i, m := range pop.Members {
		wantIn := m.Card.Domain == "legal"
		if wantIn != returned[ids[i]] {
			t.Fatalf("member %d (card domain %q): in result = %v", i, m.Card.Domain, returned[ids[i]])
		}
	}
}

func TestDurableLakeReopens(t *testing.T) {
	dir := t.TempDir()
	pop := population(t, 408)
	var firstID string
	{
		l, err := Open(Config{Dir: dir, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ids := fill(t, l, pop)
		firstID = ids[0]
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(Config{Dir: dir, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Count() != len(pop.Members) {
		t.Fatalf("reopened count = %d, want %d", l.Count(), len(pop.Members))
	}
	// All search modalities still work after rehydration.
	if hits := l.SearchKeyword("legal", 3); len(hits) == 0 {
		t.Fatal("keyword index not rehydrated")
	}
	if _, err := l.SearchByModel(firstID, "behavior", 3); err != nil {
		t.Fatalf("behaviour index not rehydrated: %v", err)
	}
	if _, err := l.VersionGraphContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClosedWeightsModelBehaviourSearchable(t *testing.T) {
	l, err := Open(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 409)
	// Ingest the first base with withheld weights.
	m := pop.Members[0]
	rec, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{
		Name: m.Truth.Name, WithholdWeights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// It cannot be loaded as weights...
	if _, err := l.Record(rec.ID); err != nil {
		t.Fatal(err)
	}
	// ...but the live handle still answers behavioural search this session.
	for _, other := range pop.Members[1:3] {
		if _, err := l.Ingest(other.Model, other.Card, registry.RegisterOptions{Name: other.Truth.Name}); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := l.SearchByModel(rec.ID, "behavior", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("closed-weights model not behaviour-searchable")
	}
}

func TestScoreUnknownBenchmark(t *testing.T) {
	l, err := Open(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 410)
	ids := fill(t, l, pop)
	if _, err := l.Score(ids[0], "no-such-bench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := l.Score("m-999999", "bench-legal"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("unknown model: %v", err)
	}
}

func TestProvenanceRecordedOnIngest(t *testing.T) {
	l, err := Open(Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 411)
	base := pop.Members[0]
	baseRec, err := l.Ingest(base.Model, base.Card, registry.RegisterOptions{Name: base.Truth.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Provenance().Get("model:" + baseRec.ID); err != nil {
		t.Fatalf("model entity not journaled: %v", err)
	}

	// A child with declared history gets activity + derivation edges.
	child := pop.Members[1]
	child.Model.Hist = &model.History{
		DatasetID:      child.Truth.DatasetID,
		DatasetDomain:  child.Truth.Domain,
		Transformation: child.Truth.Transform,
		BaseModelIDs:   []string{baseRec.ID},
	}
	childRec, err := l.Ingest(child.Model, child.Card, registry.RegisterOptions{Name: child.Truth.Name})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := l.Provenance().Why("model:" + childRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Activity == "" {
		t.Fatal("child activity not journaled")
	}
	if len(ex.UsedInputs) == 0 {
		t.Fatal("training dataset not journaled as used input")
	}
	sources, err := l.Provenance().Sources("model:" + childRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 || sources[0] != "model:"+baseRec.ID {
		t.Fatalf("derivation sources = %v", sources)
	}
}

func TestHybridSearch(t *testing.T) {
	l, err := Open(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 412)
	ids := fill(t, l, pop)
	hits, err := l.SearchHybrid("legal statute", ids[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("hybrid search found nothing")
	}
	if _, err := l.SearchHybrid("", "", 5); err == nil {
		t.Fatal("empty hybrid query accepted")
	}
}

func TestAuditRefutesFalseTrainingClaim(t *testing.T) {
	l, err := Open(Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pop := population(t, 413)
	ids := fill(t, l, pop)

	// Find a base and a model from a different family, then lie: claim the
	// foreign model was trained on the base's dataset.
	var base, foreign int
	for i, m := range pop.Members {
		if m.Truth.Depth == 0 {
			if m.Truth.Domain == "legal" {
				base = i
			} else if m.Truth.Domain == "medical" {
				foreign = i
			}
		}
	}
	lyingCard, err := l.Card(ids[foreign])
	if err != nil {
		t.Fatal(err)
	}
	lyingCard.TrainingData = pop.Members[base].Truth.DatasetID
	if err := l.PutCard(ids[foreign], lyingCard); err != nil {
		t.Fatal(err)
	}
	rep, err := l.AuditContext(context.Background(), ids[foreign], nil)
	if err != nil {
		t.Fatal(err)
	}
	foundA6 := false
	for _, f := range rep.Findings {
		if f.ID == "A6" {
			foundA6 = true
		}
	}
	if !foundA6 {
		t.Fatalf("false training claim not refuted; findings: %+v", rep.Findings)
	}

	// The honest base passes A6.
	repBase, err := l.AuditContext(context.Background(), ids[base], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range repBase.Findings {
		if f.ID == "A6" {
			t.Fatal("honest claim refuted")
		}
	}
}

func TestDatasetLineageSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	pop := population(t, 414)
	var base *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 && m.Truth.Domain == "legal" {
			base = m
		}
	}
	var wantHits int
	{
		l, err := Open(Config{Dir: dir, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l, pop)
		res, err := l.Query(fmt.Sprintf(
			"FIND MODELS WHERE TRAINED ON VERSIONS OF DATASET '%s'", base.Truth.DatasetID))
		if err != nil {
			t.Fatal(err)
		}
		wantHits = len(res.Hits)
		l.Close()
	}
	// Reopen WITHOUT re-registering datasets: the version closure must come
	// from the persisted lineage.
	l, err := Open(Config{Dir: dir, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.Query(fmt.Sprintf(
		"FIND MODELS WHERE TRAINED ON VERSIONS OF DATASET '%s'", base.Truth.DatasetID))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != wantHits {
		t.Fatalf("version-closure hits after reopen = %d, want %d", len(res.Hits), wantHits)
	}
	lineage, err := l.DatasetLineage()
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != len(pop.Datasets) {
		t.Fatalf("lineage has %d datasets, want %d", len(lineage), len(pop.Datasets))
	}
}

// TestLakeAtScale exercises a 150-model lake end to end. Skipped in -short.
func TestLakeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short")
	}
	l, err := Open(Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := lakegen.DefaultSpec(999)
	s.NumBases = 10
	s.ChildrenPerBase = 14
	pop, err := lakegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	ids := fill(t, l, pop)
	if l.Count() != 150 {
		t.Fatalf("Count = %d, want 150", l.Count())
	}

	// Content search still retrieves same-family models.
	good, total := 0, 0
	for i := 0; i < len(pop.Members); i += 10 {
		hits, err := l.SearchByModel(ids[i], "behavior", 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			for j, id := range ids {
				if id == h.ID {
					total++
					if pop.Members[j].Truth.Family == pop.Members[i].Truth.Family {
						good++
					}
				}
			}
		}
	}
	if frac := float64(good) / float64(total); frac < 0.7 {
		t.Fatalf("same-family fraction at scale = %.2f, want >= 0.7", frac)
	}

	// Version graph over 150 models still beats random handily.
	g, err := l.VersionGraphContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	truth := map[[2]string]bool{}
	for _, e := range pop.Edges {
		truth[[2]string{ids[e.Parent], ids[e.Child]}] = true
	}
	var recovered []version.Edge
	for _, e := range g.Edges {
		recovered = append(recovered, version.Edge{Parent: e.Parent, Child: e.Child})
	}
	res := version.EvaluateEdges(recovered, truth)
	if res.F1 < 0.35 {
		t.Fatalf("scale graph F1 = %.2f, want >= 0.35", res.F1)
	}

	// Declarative queries stay interactive.
	start := nowMillis()
	if _, err := l.Query("FIND MODELS WHERE DOMAIN = 'legal' LIMIT 10"); err != nil {
		t.Fatal(err)
	}
	if elapsed := nowMillis() - start; elapsed > 2000 {
		t.Fatalf("query took %dms at 150 models", elapsed)
	}
}

func nowMillis() int64 { return time.Now().UnixMilli() }
