package experiments

import (
	"fmt"
	"strings"

	"modellake/internal/benchmark"
	"modellake/internal/docgen"
	"modellake/internal/embedding"
	"modellake/internal/kvstore"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/version"
)

// RunE6 evaluates documentation generation (§6): a census of card
// completeness in the generated lake (the Liang-et-al. observation as a
// knob), docgen's ability to recover dropped fields from intrinsic and
// extrinsic evidence, and misinformation detection against PoisonGPT-style
// lying cards.
func RunE6(seed uint64) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "card census and docgen field recovery",
		Columns: []string{"doc drop", "lie frac", "mean completeness", "draft completeness",
			"domain acc", "base acc", "lie detection"},
		Notes: "drafts regenerate dropped fields; contradictions flag lying cards",
	}
	for _, cfg := range []struct{ drop, lies float64 }{
		{0.3, 0.0},
		{0.6, 0.0},
		{0.9, 0.0},
		{0.0, 0.4},
	} {
		spec := lakegen.DefaultSpec(seed)
		spec.NumBases = 4
		spec.ChildrenPerBase = 6
		spec.CardDropProb = cfg.drop
		spec.LieFrac = cfg.lies
		pop, err := lakegen.Generate(spec)
		if err != nil {
			return nil, err
		}
		// Assign IDs, reconstruct the graph, wire a generator.
		var nodes []version.Node
		var peers []docgen.Peer
		for i, m := range pop.Members {
			m.Model.ID = fmt.Sprintf("m%02d", i)
			m.Card.ModelID = m.Model.ID
			nodes = append(nodes, version.Node{ID: m.Model.ID, Net: m.Model.Net})
			peers = append(peers, docgen.Peer{Handle: model.NewHandle(m.Model), Card: m.Card})
		}
		graph, err := version.Reconstruct(nodes, version.Config{ClassifyEdges: true, Seed: seed})
		if err != nil {
			return nil, err
		}
		gen := &docgen.Generator{
			Peers:     peers,
			Graph:     graph,
			Score:     benchmark.NewRunner(kvstore.OpenMemory()).Score,
			Behavior:  embedding.NewBehaviorEmbedder(spec.Dim, 32, 8, seed),
			ProbeSeed: seed + 1,
		}

		var censusSum, draftSum float64
		var domainOK, domainN, baseOK, baseN int
		var liesFlagged, liesTotal int
		for i, m := range pop.Members {
			censusSum += m.Card.Completeness()
			// Draft from the published (possibly gappy/lying) card.
			d, err := gen.Draft(model.NewHandle(m.Model), m.Card)
			if err != nil {
				return nil, err
			}
			draftSum += d.Card.Completeness()

			if m.Truth.Lying {
				liesTotal++
				caught := false
				for _, f := range d.Flags {
					if strings.Contains(f, "domain") {
						caught = true
						break
					}
				}
				// Second line of defence (as in the lake's audit item A6):
				// verify the card's training-data claim behaviourally.
				if !caught && m.Card.TrainingData != "" {
					if ds, ok := pop.Datasets[m.Card.TrainingData]; ok {
						verdict, _, err := docgen.VerifyTrainingClaim(model.NewHandle(m.Model), ds)
						if err == nil && verdict == docgen.ClaimRefuted {
							caught = true
						}
					}
				}
				if caught {
					liesFlagged++
				}
			}
			// Field recovery accuracy on fields the published card lost.
			if m.Card.Domain == "" && d.Card.Domain != "" {
				domainN++
				if baseDomain(d.Card.Domain) == baseDomain(m.Truth.Domain) {
					domainOK++
				}
			}
			if m.Card.BaseModel == "" && d.Card.BaseModel != "" && len(m.Truth.Parents) > 0 {
				baseN++
				if d.Card.BaseModel == fmt.Sprintf("m%02d", m.Truth.Parents[0]) {
					baseOK++
				}
			}
			_ = i
		}
		n := float64(len(pop.Members))
		ratio := func(ok, total int) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f (%d/%d)", float64(ok)/float64(total), ok, total)
		}
		t.AddRow(f2(cfg.drop), f2(cfg.lies), f3(censusSum/n), f3(draftSum/n),
			ratio(domainOK, domainN), ratio(baseOK, baseN), ratio(liesFlagged, liesTotal))
	}
	return t, nil
}
