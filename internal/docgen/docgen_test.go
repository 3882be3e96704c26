package docgen

import (
	"fmt"
	"strings"
	"testing"

	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/embedding"
	"modellake/internal/kvstore"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/version"
)

// buildContext generates a lake, reconstructs its version graph, and wires a
// Generator whose peers carry the (possibly corrupted) published cards.
func buildContext(t *testing.T, seed uint64, dropProb float64) (*lakegen.Population, *Generator) {
	t.Helper()
	s := lakegen.DefaultSpec(seed)
	s.NumBases = 4
	s.ChildrenPerBase = 6
	s.CardDropProb = dropProb
	pop, err := lakegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []version.Node
	var peers []Peer
	for i, m := range pop.Members {
		m.Model.ID = fmt.Sprintf("m%02d", i)
		m.Card.ModelID = m.Model.ID
		nodes = append(nodes, version.Node{ID: m.Model.ID, Net: m.Model.Net})
		peers = append(peers, Peer{Handle: model.NewHandle(m.Model), Card: m.Card})
	}
	graph, err := version.Reconstruct(nodes, version.Config{ClassifyEdges: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var benches []*benchmark.Benchmark
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			benches = append(benches, &benchmark.Benchmark{
				ID: m.Truth.DatasetID, DS: pop.Datasets[m.Truth.DatasetID], Metric: benchmark.MetricAccuracy,
			})
		}
	}
	gen := &Generator{
		Peers:      peers,
		Graph:      graph,
		Score:      benchmark.NewRunner(kvstore.OpenMemory()).Score,
		Benchmarks: benches,
		Behavior:   embedding.NewBehaviorEmbedder(pop.Spec.Dim, 32, 8, 9),
		ProbeSeed:  7,
	}
	return pop, gen
}

func TestDraftFillsMissingFields(t *testing.T) {
	pop, gen := buildContext(t, 301, 0.0)
	// Strip a derived member's card completely and regenerate it.
	var target *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Depth > 0 {
			target = m
			break
		}
	}
	bare := &card.Card{ModelID: target.Model.ID, Name: target.Truth.Name}
	d, err := gen.Draft(model.NewHandle(target.Model), bare)
	if err != nil {
		t.Fatal(err)
	}
	if d.Card.Architecture != target.Model.Net.ArchString() {
		t.Fatalf("architecture = %q", d.Card.Architecture)
	}
	if d.Card.Domain == "" {
		t.Fatal("domain not inferred")
	}
	if d.Card.BaseModel == "" {
		t.Fatal("base model not recovered")
	}
	if len(d.Card.Metrics) == 0 {
		t.Fatal("metrics not measured")
	}
	if d.Card.Completeness() <= bare.Completeness() {
		t.Fatal("draft did not improve completeness")
	}
	if len(d.Evidence) == 0 {
		t.Fatal("no evidence recorded")
	}
}

func TestDraftDomainAccuracy(t *testing.T) {
	// Across all derived members with emptied cards, the inferred domain
	// family should usually match the truth.
	pop, gen := buildContext(t, 302, 0.0)
	correct, total := 0, 0
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			continue
		}
		bare := &card.Card{ModelID: m.Model.ID, Name: m.Truth.Name}
		d, err := gen.Draft(model.NewHandle(m.Model), bare)
		if err != nil {
			t.Fatal(err)
		}
		if d.Card.Domain == "" {
			continue
		}
		total++
		// Compare domain families (legal-ft3 → legal).
		if baseOf(d.Card.Domain) == baseOf(m.Truth.Domain) {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no domains inferred")
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Fatalf("domain recovery accuracy = %.2f (%d/%d), want >= 0.7", acc, correct, total)
	}
}

func baseOf(domain string) string {
	if i := strings.IndexAny(domain, "-/"); i >= 0 {
		return domain[:i]
	}
	return domain
}

func TestDraftPreservesTruthfulClaims(t *testing.T) {
	pop, gen := buildContext(t, 303, 0.0)
	m := pop.Members[1]
	d, err := gen.Draft(model.NewHandle(m.Model), m.Card)
	if err != nil {
		t.Fatal(err)
	}
	if d.Card.Domain != m.Card.Domain {
		t.Fatalf("draft overwrote truthful domain %q with %q", m.Card.Domain, d.Card.Domain)
	}
	if d.Card.TrainingData != m.Card.TrainingData {
		t.Fatal("draft overwrote truthful training data")
	}
}

func TestDraftFlagsMisinformation(t *testing.T) {
	pop, gen := buildContext(t, 304, 0.0)
	// Poison a derived member's card with a wrong domain.
	var target *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Depth > 0 && baseOf(m.Truth.Domain) == "legal" {
			target = m
			break
		}
	}
	if target == nil {
		t.Skip("no legal derived member")
	}
	lying := card.InjectMisinformation(target.Card, "medical", "medical/v1")
	d, err := gen.Draft(model.NewHandle(target.Model), lying)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range d.Flags {
		if strings.Contains(f, "domain") {
			found = true
		}
	}
	if !found {
		t.Fatalf("misinformation not flagged; flags = %v", d.Flags)
	}
}

func TestDraftWithoutGraphOrBenchmarks(t *testing.T) {
	pop, gen := buildContext(t, 305, 0.0)
	gen.Graph = nil
	gen.Score = nil
	gen.Benchmarks = nil
	m := pop.Members[2]
	d, err := gen.Draft(model.NewHandle(m.Model), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Card.ModelID != m.Model.ID {
		t.Fatal("model id not set")
	}
	// No graph → no lineage inference, but no crash either.
}

func TestDraftClosedWeightsModel(t *testing.T) {
	// A model with extrinsics only still gets a behavioural domain.
	pop, gen := buildContext(t, 306, 0.0)
	var target *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Depth > 0 {
			target = m
			break
		}
	}
	h := model.WithViews(target.Model, model.ViewExtrinsic)
	d, err := gen.Draft(h, &card.Card{ModelID: h.ID(), Name: target.Truth.Name})
	if err != nil {
		t.Fatal(err)
	}
	if d.Card.Domain == "" {
		t.Fatal("behavioural vote failed for closed-weights model")
	}
	if d.Card.Architecture != "" {
		t.Fatal("architecture should be unavailable for closed-weights model")
	}
}

func TestVerifyTrainingClaim(t *testing.T) {
	pop, _ := buildContext(t, 310, 0.0)
	base := pop.Members[0]
	ds := pop.Datasets[base.Truth.DatasetID]
	// True claim: the model was trained on ds.
	verdict, acc, err := VerifyTrainingClaim(model.NewHandle(base.Model), ds)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != ClaimSupported || acc < 0.8 {
		t.Fatalf("true claim verdict = %s (acc %v), want supported", verdict, acc)
	}
	// False claim: a model from another family claims this dataset.
	var liar *lakegen.Member
	for _, m := range pop.Members {
		if m.Truth.Family != base.Truth.Family {
			liar = m
			break
		}
	}
	verdict, acc, err = VerifyTrainingClaim(model.NewHandle(liar.Model), ds)
	if err != nil {
		t.Fatal(err)
	}
	if verdict == ClaimSupported {
		t.Fatalf("false claim supported (acc %v)", acc)
	}
}

func TestVerifyTrainingClaimValidation(t *testing.T) {
	pop, _ := buildContext(t, 311, 0.0)
	h := model.NewHandle(pop.Members[0].Model)
	if _, _, err := VerifyTrainingClaim(h, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	// A closed model with no extrinsics is inconclusive with an error.
	closed := model.WithViews(pop.Members[0].Model, 0)
	ds := pop.Datasets[pop.Members[0].Truth.DatasetID]
	if v, _, err := VerifyTrainingClaim(closed, ds); err == nil || v != ClaimInconclusive {
		t.Fatalf("closed model: verdict=%v err=%v", v, err)
	}
}
