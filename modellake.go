// Package modellake is a model lake management system: a reference
// implementation of the vision in "Model Lakes" (Pal, Bau, Miller, EDBT
// 2025). A model lake stores many heterogeneous trained models together with
// their documentation, and supports the lake tasks the paper formalizes —
// model search (keyword, content-based, task-based, and declarative),
// version-graph reconstruction from weights, training-data attribution,
// benchmarking with verified ground truth — plus the applications built on
// them: documentation generation, auditing with upstream-risk propagation,
// and version-anchored citation.
//
// The package re-exports the library's public surface; subsystems live in
// internal/ packages. A minimal session:
//
//	lk, err := modellake.Open(modellake.Config{Dir: "my-lake"})
//	...
//	rec, err := lk.Ingest(m, card, modellake.RegisterOptions{Name: "legal-clf"})
//	hits := lk.SearchKeyword("legal summarization", 10)
//	res, err := lk.Query("FIND MODELS WHERE TRAINED ON DATASET 'legal/v1' LIMIT 5")
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package modellake

import (
	"modellake/internal/advisor"
	"modellake/internal/audit"
	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/data"
	"modellake/internal/docgen"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/version"
	"modellake/internal/xrand"
)

// Lake is a model lake instance. See internal/lake for the full method set:
// Ingest, SearchKeyword, SearchByModel, SearchTask, SearchHybrid, Query,
// VersionGraphContext, Attribute, GenerateCardContext, AuditContext, Cite,
// Score, and friends.
type Lake = lake.Lake

// Config configures a lake (storage directory, probe space, index choice).
type Config = lake.Config

// Open creates or opens a model lake.
func Open(cfg Config) (*Lake, error) { return lake.Open(cfg) }

// Model is the lake's five-tuple model representation M = (D, A, f*, θ, p_θ).
type Model = model.Model

// History is the (D, A) component of a model: its training data and
// algorithm, as documented.
type History = model.History

// Handle is a (possibly viewpoint-restricted) window onto a model.
type Handle = model.Handle

// NewHandle returns an unrestricted handle for a model.
func NewHandle(m *Model) *Handle { return model.NewHandle(m) }

// Card is a structured model card.
type Card = card.Card

// RegisterOptions carries the declared metadata accompanying an ingest.
type RegisterOptions = registry.RegisterOptions

// IngestItem is one model of a batch ingest (Lake.IngestAll), which embeds
// and indexes the batch through a bounded worker pool.
type IngestItem = lake.IngestItem

// Record is a registry catalog entry.
type Record = registry.Record

// Benchmark couples a dataset with a scoring metric.
type Benchmark = benchmark.Benchmark

// Hit is a ranked search result.
type Hit = search.Hit

// TaskExample is one labeled example of a task function for task search.
type TaskExample = search.TaskExample

// Graph is a directed model version graph.
type Graph = version.Graph

// Citation is a version-graph-anchored model citation.
type Citation = provenance.Citation

// Draft is an auto-generated model-card draft with evidence and flags.
type Draft = docgen.Draft

// AuditReport is a completed audit.
type AuditReport = audit.Report

// Advice is a ranked, caveated model recommendation for a user task.
type Advice = advisor.Advice

// Advise recommends lake models for the task the labeled examples describe
// (§5's model-inference component).
func Advise(lk *Lake, examples []TaskExample, k int) (*Advice, error) {
	return advisor.Advise(lk, examples, k)
}

// Dataset is a labeled feature dataset.
type Dataset = data.Dataset

// Domain is a stable generative source of classification data.
type Domain = data.Domain

// NewDomain creates a domain with deterministic class structure.
func NewDomain(name string, dim, classes int, seed uint64) *Domain {
	return data.NewDomain(name, dim, classes, seed)
}

// RNG is the deterministic random number generator used throughout the
// library.
type RNG = xrand.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// MLP is the neural-network substrate for lake models.
type MLP = nn.MLP

// TrainConfig configures model training.
type TrainConfig = nn.TrainConfig

// NewMLP builds a randomly initialized network.
func NewMLP(sizes []int, seed uint64) *MLP {
	return nn.NewMLP(sizes, nn.ReLU, xrand.New(seed))
}

// Train trains a model on a dataset and returns the final mean loss.
func Train(m *MLP, ds *Dataset, cfg TrainConfig) (float64, error) {
	return nn.Train(m, ds, cfg)
}

// DefaultTrainConfig returns a training configuration suitable for the small
// synthetic domains.
func DefaultTrainConfig() TrainConfig { return nn.DefaultTrainConfig() }

// LakeSpec configures synthetic benchmark-lake generation.
type LakeSpec = lakegen.Spec

// Population is a generated benchmark lake with verified ground truth.
type Population = lakegen.Population

// GenerateLake synthesizes a benchmark lake: model families with known
// lineage, domains, and documentation quality.
func GenerateLake(spec LakeSpec) (*Population, error) { return lakegen.Generate(spec) }

// DefaultLakeSpec returns a small benchmark-lake specification.
func DefaultLakeSpec(seed uint64) LakeSpec { return lakegen.DefaultSpec(seed) }
