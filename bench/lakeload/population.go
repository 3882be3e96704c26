package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"

	"modellake/internal/data"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/registry"
	"modellake/internal/server"
)

// population is everything the harness derives from -seed before the lake
// exists: the models to preload, the models the writer will post, and the
// vocabularies the request schedule draws from.
type population struct {
	items   []lake.IngestItem // all generated models, preload first
	preload int               // items[:preload] are ingested during set-up

	domains []string // card domains, sorted
	freq    []string // card terms in 10–50 % of cards, most frequent first
	rare    []string // card terms in 2–8 cards, sorted
	texts   []string // card text per preloaded item ("" when the card was dropped)
}

// lakeSpec is experiments.scaleSpec: tiny models, one epoch, families of
// five, anonymous names — cheap to generate, full ingest path.
func lakeSpec(seed uint64, models int) lakegen.Spec {
	const perFamily = 5
	return lakegen.Spec{
		Seed: seed, NumBases: (models + perFamily - 1) / perFamily,
		ChildrenPerBase: perFamily - 1, MaxDepth: 3,
		Dim: 8, Classes: 3, Hidden: 8, TrainN: 32, Noise: 0.4,
		BaseEpochs: 1, FTEpochs: 1, CardDropProb: 0.2, AnonymousNames: true,
		TransformMix: map[string]float64{
			model.TransformFinetune: 0.55,
			model.TransformLoRA:     0.25,
			model.TransformStitch:   0.2,
		},
	}
}

func generate(seed uint64, preload, extra int) (*population, error) {
	p := &population{preload: preload}
	total := preload + extra
	err := lakegen.Stream(lakeSpec(seed, total), func(m *lakegen.Member) error {
		if len(p.items) < total {
			p.items = append(p.items, lake.IngestItem{
				Model: m.Model, Card: m.Card,
				Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"},
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generate population: %w", err)
	}
	if len(p.items) < total {
		return nil, fmt.Errorf("generate population: got %d models, want %d", len(p.items), total)
	}
	p.vocab()
	return p, nil
}

// vocab derives the keyword and MLQL vocabularies from the preloaded cards.
func (p *population) vocab() {
	df := map[string]int{}
	dom := map[string]bool{}
	cards := 0
	p.texts = make([]string, p.preload)
	for i, it := range p.items[:p.preload] {
		if it.Card == nil {
			continue
		}
		cards++
		dom[it.Card.Domain] = true
		p.texts[i] = it.Card.Text()
		seen := map[string]bool{}
		for _, tok := range data.Tokenize(p.texts[i]) {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	for d := range dom {
		if d != "" {
			p.domains = append(p.domains, d)
		}
	}
	sort.Strings(p.domains)
	toks := make([]string, 0, len(df))
	for t := range df {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	for _, t := range toks {
		switch n := df[t]; {
		case n*10 >= cards && n*2 <= cards:
			p.freq = append(p.freq, t)
		case n >= 2 && n <= 8:
			p.rare = append(p.rare, t)
		}
	}
	sort.SliceStable(p.freq, func(a, b int) bool { return df[p.freq[a]] > df[p.freq[b]] })
	if len(p.freq) > 16 {
		p.freq = p.freq[:16]
	}
	if len(p.rare) > 64 {
		p.rare = p.rare[:64]
	}
}

// modelID is the catalog ID the lake mints for the i-th ingested model
// (0-based). Serial ingest mints m-%06d on a single node and in a cluster
// alike; set-up checks every returned record against it.
func modelID(i int) string { return fmt.Sprintf("m-%06d", i+1) }

// modelIndex is modelID's inverse.
func modelIndex(id string) int {
	var n int
	fmt.Sscanf(id, "m-%d", &n)
	return n - 1
}

// encodeBatch renders items as a POST /v1/models/batch body.
func encodeBatch(items []lake.IngestItem) ([]byte, error) {
	req := server.BatchIngestRequest{Models: make([]server.IngestRequest, len(items))}
	for i, it := range items {
		raw, err := nn.EncodeMLP(it.Model.Net)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", it.Opts.Name, err)
		}
		req.Models[i] = server.IngestRequest{
			Name: it.Opts.Name, Version: it.Opts.Version,
			Card: it.Card, History: it.Model.Hist,
			WeightsB64: base64.StdEncoding.EncodeToString(raw),
		}
	}
	return json.Marshal(req)
}
