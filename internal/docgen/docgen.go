// Package docgen implements the documentation-generation application of §6:
// drafting model cards automatically from lake analyses. Given a target
// model, the generator fills each card field from the viewpoint best able to
// supply it —
//
//   - architecture from the intrinsics,
//   - domain from a weight-space probe trained on the lake's documented
//     models, cross-checked by a behavioural nearest-neighbour vote,
//   - lineage (base model + transformation) from the recovered version
//     graph,
//   - training data from the recovered parent's documentation,
//   - metrics by running the lake's benchmarks,
//
// and records per-field evidence. When the inferred domain contradicts the
// card the uploader supplied, the draft carries a misinformation flag — the
// PoisonGPT defence the paper's documentation section calls for.
package docgen

import (
	"fmt"
	"sort"

	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/embedding"
	"modellake/internal/model"
	"modellake/internal/tensor"
	"modellake/internal/version"
	"modellake/internal/weightspace"
)

// Peer is one lake resident visible to the generator.
type Peer struct {
	Handle *model.Handle
	Card   *card.Card // may be nil or incomplete
}

// Generator drafts cards from lake context.
type Generator struct {
	Peers []Peer
	Graph *version.Graph // recovered version graph over peer IDs
	// Score measures a model on a benchmark (a benchmark.Runner's Score
	// fits); nil skips the metrics.
	Score      func(*model.Handle, *benchmark.Benchmark) (float64, error)
	Benchmarks []*benchmark.Benchmark
	// Behavior embeds models for the nearest-neighbour domain vote; nil
	// disables the vote.
	Behavior *embedding.BehaviorEmbedder
	// NeighbourK is the k for the behavioural vote (default 3).
	NeighbourK int
	// ProbeSeed seeds weight-space probe training.
	ProbeSeed uint64
}

// Draft is a generated card plus its per-field evidence trail.
type Draft struct {
	Card     *card.Card
	Evidence map[string]string
	Flags    []string
}

// Draft generates a card draft for the target model. existing may carry the
// uploader's claims (possibly empty or false); the draft starts from it and
// fills the gaps rather than discarding truthful documentation.
func (g *Generator) Draft(target *model.Handle, existing *card.Card) (*Draft, error) {
	d := &Draft{Evidence: map[string]string{}}
	if existing != nil {
		d.Card = existing.Clone()
	} else {
		d.Card = &card.Card{Name: target.Name()}
	}
	d.Card.ModelID = target.ID()
	if d.Card.Name == "" {
		d.Card.Name = target.Name()
	}

	// Architecture: straight from the intrinsics.
	if arch, err := target.Arch(); err == nil {
		if d.Card.Architecture == "" {
			d.Card.Architecture = arch
			d.Evidence["architecture"] = "read from model intrinsics"
		} else if d.Card.Architecture != arch {
			d.Card.Architecture = arch
			d.Flags = append(d.Flags, fmt.Sprintf(
				"architecture claim %q contradicts intrinsics %q", existing.Architecture, arch))
		}
	}

	// Domain: weight-space probe + behavioural neighbour vote.
	probeDomain := g.probeDomain(target)
	voteDomain := g.neighbourDomain(target)
	inferred := probeDomain
	evidence := "weight-space probe"
	if inferred == "" {
		inferred = voteDomain
		evidence = "behavioural neighbour vote"
	} else if voteDomain != "" && voteDomain == probeDomain {
		evidence = "weight-space probe, confirmed by behavioural neighbours"
	}
	if inferred != "" {
		if d.Card.Domain == "" {
			d.Card.Domain = inferred
			d.Evidence["domain"] = evidence
		} else if d.Card.Domain != inferred && inferred == voteDomain && probeDomain == voteDomain {
			// Both independent analyses agree and contradict the claim.
			d.Flags = append(d.Flags, fmt.Sprintf(
				"declared domain %q contradicts lake analysis %q (%s)", d.Card.Domain, inferred, evidence))
		}
	}

	// Lineage from the recovered graph.
	if g.Graph != nil {
		parents := g.Graph.Parents(target.ID())
		sort.Strings(parents)
		if len(parents) > 0 {
			if d.Card.BaseModel == "" {
				d.Card.BaseModel = parents[0]
				d.Evidence["base_model"] = "recovered version graph"
			} else if !g.refersToAny(d.Card.BaseModel, parents) {
				d.Flags = append(d.Flags, fmt.Sprintf(
					"declared base %q not among recovered parents %v", d.Card.BaseModel, parents))
			}
			if d.Card.Transform == "" {
				for _, e := range g.Graph.Edges {
					if e.Child == target.ID() && e.Parent == parents[0] && e.Transform != "" {
						d.Card.Transform = e.Transform
						d.Evidence["transform"] = "weight-delta classification"
						break
					}
				}
			}
			// Training data: inherit the parent's documentation when the
			// target has none.
			if d.Card.TrainingData == "" {
				if pc := g.peerCard(parents[0]); pc != nil && pc.TrainingData != "" {
					d.Card.TrainingData = pc.TrainingData + " (inherited from recovered parent)"
					d.Evidence["training_data"] = "recovered parent's documentation"
				}
			}
		}
	}

	// Task: majority among behavioural neighbours' cards.
	if d.Card.Task == "" {
		if task := g.neighbourField(target, func(c *card.Card) string { return c.Task }); task != "" {
			d.Card.Task = task
			d.Evidence["task"] = "behavioural neighbour majority"
		}
	}

	// Metrics: run the lake benchmarks.
	if g.Score != nil && len(g.Benchmarks) > 0 {
		if d.Card.Metrics == nil {
			d.Card.Metrics = map[string]float64{}
		}
		for _, b := range g.Benchmarks {
			s, err := g.Score(target, b)
			if err != nil {
				continue
			}
			key := b.ID + "/" + b.Metric
			if _, ok := d.Card.Metrics[key]; !ok {
				d.Card.Metrics[key] = s
			}
		}
		if len(d.Card.Metrics) > 0 {
			d.Evidence["metrics"] = "measured on lake benchmarks"
		}
	}

	// Boilerplate the remaining prose fields from the inferred domain.
	if d.Card.IntendedUse == "" && d.Card.Domain != "" {
		d.Card.IntendedUse = fmt.Sprintf("Classification of %s feature data.", d.Card.Domain)
		d.Evidence["intended_use"] = "templated from inferred domain"
	}
	if d.Card.Description == "" && d.Card.Domain != "" {
		d.Card.Description = fmt.Sprintf(
			"Auto-generated draft: a %s classifier (%s).", d.Card.Domain, d.Card.Architecture)
		d.Evidence["description"] = "templated from inferred fields"
	}
	if d.Card.Limitations == "" {
		d.Card.Limitations = "Auto-drafted documentation: domain, lineage and metrics are " +
			"lake-inferred, not author-provided — verify before production use."
		d.Evidence["limitations"] = "standard auto-draft disclaimer"
	}
	// Deliberately never auto-filled: License and Contact are legal/ownership
	// facts no analysis can infer.
	return d, nil
}

// refersToAny reports whether ref (a lake ID or a human model name, as cards
// may use either) denotes one of the peer IDs in ids.
func (g *Generator) refersToAny(ref string, ids []string) bool {
	for _, id := range ids {
		if ref == id {
			return true
		}
	}
	for _, p := range g.Peers {
		if p.Handle.Name() == ref {
			for _, id := range ids {
				if p.Handle.ID() == id {
					return true
				}
			}
		}
	}
	return false
}

func (g *Generator) peerCard(id string) *card.Card {
	for _, p := range g.Peers {
		if p.Handle.ID() == id {
			return p.Card
		}
	}
	return nil
}

// probeDomain trains a weight-space probe on peers with documented domains
// and applies it to the target. Returns "" when unusable.
func (g *Generator) probeDomain(target *model.Handle) string {
	var hs []*model.Handle
	var labels []string
	for _, p := range g.Peers {
		if p.Handle.ID() == target.ID() || p.Card == nil || p.Card.Domain == "" {
			continue
		}
		if !p.Handle.HasView(model.ViewIntrinsic) {
			continue
		}
		hs = append(hs, p.Handle)
		labels = append(labels, p.Card.Domain)
	}
	if len(hs) < 4 {
		return ""
	}
	probe, _, err := weightspace.TrainProbe(hs, labels, weightspace.ProbeConfig{Seed: g.ProbeSeed})
	if err != nil {
		return ""
	}
	domain, err := probe.Predict(target)
	if err != nil {
		return ""
	}
	return domain
}

// neighbourDomain votes the domain among the behaviourally nearest
// documented peers.
func (g *Generator) neighbourDomain(target *model.Handle) string {
	return g.neighbourField(target, func(c *card.Card) string { return c.Domain })
}

// neighbourField embeds the target and documented peers behaviourally and
// returns the majority value of field among the k nearest. Returns "" when
// the vote is impossible or empty.
func (g *Generator) neighbourField(target *model.Handle, field func(*card.Card) string) string {
	if g.Behavior == nil {
		return ""
	}
	k := g.NeighbourK
	if k <= 0 {
		k = 3
	}
	tv, err := g.Behavior.Embed(target)
	if err != nil {
		return ""
	}
	type scored struct {
		val  string
		dist float64
	}
	var all []scored
	for _, p := range g.Peers {
		if p.Handle.ID() == target.ID() || p.Card == nil {
			continue
		}
		v := field(p.Card)
		if v == "" {
			continue
		}
		pv, err := g.Behavior.Embed(p.Handle)
		if err != nil {
			continue
		}
		all = append(all, scored{val: v, dist: tensor.L2Distance(tv, pv)})
	}
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
	if k > len(all) {
		k = len(all)
	}
	votes := map[string]int{}
	for _, s := range all[:k] {
		votes[s.val]++
	}
	best, bestN := "", 0
	keys := make([]string, 0, len(votes))
	for v := range votes {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		if votes[v] > bestN {
			best, bestN = v, votes[v]
		}
	}
	return best
}
