// Package registry implements the model lake's catalog: durable, named,
// versioned model records over the kvstore (metadata, cards) and the blob
// store (weights). It corresponds to the "model repository/registry" layer
// the paper surveys in §4 — storage, naming and version representation — on
// top of which the lake tasks add discovery and analysis.
//
// Key layout in the kvstore:
//
//	model/<id>        -> Record JSON
//	card/<id>         -> card JSON
//	name/<name>@<ver> -> model id
//	meta/seq          -> sequence high-water mark (leased in blocks)
//
// A registration spans several keys (record, card, name index); they are
// committed as one atomic kvstore batch record, so a crash or IO failure
// can never leave a half-registered model behind. Bulk writers use
// Prepare/Commit directly to fold many registrations (plus their
// provenance) into shared batch records and coalesced blob writes.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"

	"modellake/internal/blob"
	"modellake/internal/card"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/nn"
)

// Sentinel errors.
var (
	ErrNotFound  = errors.New("registry: model not found")
	ErrDuplicate = errors.New("registry: name@version already registered")
	ErrNoWeights = errors.New("registry: model has no stored weights")
)

// Record is the catalog entry for one model. Declared fields reproduce
// whatever the uploader documented — they may be absent or false; task
// algorithms must treat them as claims, not facts.
type Record struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	Version   string  `json:"version"`
	Seq       uint64  `json:"seq"` // logical registration time
	Arch      string  `json:"arch,omitempty"`
	NumParams int     `json:"num_params,omitempty"`
	Weights   blob.ID `json:"weights,omitempty"` // empty for closed-weights models

	// Declared (documentation-derived) metadata.
	DeclaredBases []string       `json:"declared_bases,omitempty"`
	DeclaredData  string         `json:"declared_data,omitempty"`
	Domain        string         `json:"domain,omitempty"`
	Tags          []string       `json:"tags,omitempty"`
	Hist          *model.History `json:"history,omitempty"`
}

// seqBlock is the lease size for registration sequence numbers: one
// durable write hands out this many IDs, so bulk ingest pays ~1/seqBlock of
// a kv write per model for ID assignment. A crash can skip at most one
// block of IDs; it can never reuse one.
const seqBlock = 64

// Registry is the catalog. It is safe for concurrent use.
type Registry struct {
	kv    *kvstore.Store
	blobs blob.Store
	seq   *kvstore.Sequence
}

// New creates a registry over the given stores.
func New(kv *kvstore.Store, blobs blob.Store) *Registry {
	return &Registry{kv: kv, blobs: blobs, seq: kvstore.NewSequence(kv, "meta/seq", seqBlock)}
}

// NewInMemory creates a throwaway registry with in-memory backing stores.
func NewInMemory() *Registry {
	return New(kvstore.OpenMemory(), blob.NewMemStore())
}

func modelKey(id string) string           { return "model/" + id }
func cardKey(id string) string            { return "card/" + id }
func nameKey(name, version string) string { return "name/" + name + "@" + version }

// RegisterOptions carries the declared metadata accompanying an upload.
type RegisterOptions struct {
	Name    string
	Version string
	Tags    []string
	// WithholdWeights registers the model closed-weights: behaviour stays
	// reachable through the live handle the caller retains, but the lake
	// stores no θ.
	WithholdWeights bool
	// ID pins the model's catalog ID instead of minting one from this
	// registry's sequence. A cluster router mints IDs centrally — placement
	// is a consistent hash of the ID, so the ID must exist before a shard
	// is chosen — and passes the minted ID through here. A sequence number
	// is still consumed so Seq stays a usable logical clock either way.
	ID string
}

// Pending is a validated registration that has not been committed yet. The
// caller either hands it back to Commit, or (for bulk ingest) stores
// EncodedWeights itself via blob.Store.PutAll and folds Ops into a larger
// atomic kvstore batch. A Pending that is dropped costs nothing durable
// except a skipped sequence number.
type Pending struct {
	Rec *Record
	// Ops is the complete multi-key commit (card, record, name index).
	// Applying it atomically is what makes registration all-or-nothing.
	Ops []kvstore.Op
	// EncodedWeights is the serialized weights blob to store under
	// Rec.Weights before the ops commit; nil for closed-weights models.
	EncodedWeights []byte
	// Model is the registered model; its ID field should be set to Rec.ID
	// once the commit succeeds.
	Model *model.Model
}

// Prepare validates an upload, assigns its ID, and builds the atomic
// commit: the encoded weights blob plus the kvstore ops for every catalog
// key. Nothing durable happens here (besides, at most, a sequence lease);
// the caller commits via Commit or by applying Ops itself.
func (r *Registry) Prepare(m *model.Model, c *card.Card, opts RegisterOptions) (*Pending, error) {
	if m == nil {
		return nil, fmt.Errorf("registry: nil model")
	}
	name := opts.Name
	if name == "" {
		name = m.Name
	}
	if name == "" {
		return nil, fmt.Errorf("registry: model needs a name")
	}
	version := opts.Version
	if version == "" {
		version = "1"
	}
	if r.kv.Has(nameKey(name, version)) {
		return nil, fmt.Errorf("%w: %s@%s", ErrDuplicate, name, version)
	}
	seq, err := r.seq.Next()
	if err != nil {
		return nil, fmt.Errorf("registry: sequence: %w", err)
	}
	id := opts.ID
	if id == "" {
		id = fmt.Sprintf("m-%06d", seq)
	} else if r.kv.Has(modelKey(id)) {
		return nil, fmt.Errorf("%w: id %s", ErrDuplicate, id)
	}

	rec := &Record{
		ID:      id,
		Name:    name,
		Version: version,
		Seq:     seq,
		Tags:    append([]string(nil), opts.Tags...),
	}
	p := &Pending{Rec: rec, Model: m}
	if m.Net != nil {
		rec.Arch = m.Net.ArchString()
		rec.NumParams = m.Net.NumParams()
		if !opts.WithholdWeights {
			enc, err := nn.EncodeMLP(m.Net)
			if err != nil {
				return nil, fmt.Errorf("registry: encode weights: %w", err)
			}
			// Content addressing lets the ID be computed before the blob is
			// stored, so records can reference weights that a batch writer
			// persists later (but still before the ops commit).
			rec.Weights = blob.Sum(enc)
			p.EncodedWeights = enc
		}
	}
	if m.Hist != nil {
		h := *m.Hist
		rec.Hist = &h
		rec.DeclaredBases = append([]string(nil), m.Hist.BaseModelIDs...)
		rec.DeclaredData = m.Hist.DatasetID
		rec.Domain = m.Hist.DatasetDomain
	}
	if c != nil {
		cc := c.Clone()
		cc.ModelID = id
		if cc.Name == "" {
			cc.Name = name
		}
		cb, err := cc.Marshal()
		if err != nil {
			return nil, err
		}
		p.Ops = append(p.Ops, kvstore.Op{Key: cardKey(id), Value: cb})
		if rec.Domain == "" {
			rec.Domain = cc.Domain
		}
		if rec.DeclaredData == "" {
			rec.DeclaredData = cc.TrainingData
		}
		if cc.BaseModel != "" && len(rec.DeclaredBases) == 0 {
			rec.DeclaredBases = []string{cc.BaseModel}
		}
	}
	rb, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("registry: marshal record: %w", err)
	}
	p.Ops = append(p.Ops,
		kvstore.Op{Key: modelKey(id), Value: rb},
		kvstore.Op{Key: nameKey(name, version), Value: []byte(id)},
	)
	return p, nil
}

// Commit stores the pending registration: weights blob first, then the
// catalog keys as one atomic batch record. A failure commits nothing
// durable (an orphaned content-addressed blob is harmless and may be
// shared).
func (r *Registry) Commit(p *Pending) (*Record, error) {
	if p.EncodedWeights != nil {
		if _, err := r.blobs.Put(p.EncodedWeights); err != nil {
			return nil, fmt.Errorf("registry: store weights: %w", err)
		}
	}
	if err := r.kv.Apply(p.Ops); err != nil {
		return nil, fmt.Errorf("registry: commit registration: %w", err)
	}
	if p.Model != nil {
		p.Model.ID = p.Rec.ID
	}
	return p.Rec, nil
}

// Register stores a model and its card, assigning a lake ID. The model's
// Hist (if any) is recorded as declared history. The card's ModelID is
// rewritten to the assigned ID. The whole registration commits as one
// atomic batch record.
func (r *Registry) Register(m *model.Model, c *card.Card, opts RegisterOptions) (*Record, error) {
	p, err := r.Prepare(m, c, opts)
	if err != nil {
		return nil, err
	}
	return r.Commit(p)
}

// Get returns the record for a model ID.
func (r *Registry) Get(id string) (*Record, error) {
	b, err := r.kv.Get(modelKey(id))
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("registry: decode record %s: %w", id, err)
	}
	return &rec, nil
}

// Resolve maps name@version to a model ID.
func (r *Registry) Resolve(name, version string) (string, error) {
	if version == "" {
		version = "1"
	}
	b, err := r.kv.Get(nameKey(name, version))
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return "", fmt.Errorf("%w: %s@%s", ErrNotFound, name, version)
		}
		return "", err
	}
	return string(b), nil
}

// LoadModel materializes the full model (weights + declared history) for id.
// Closed-weights models return ErrNoWeights.
func (r *Registry) LoadModel(id string) (*model.Model, error) {
	rec, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	if rec.Weights == "" {
		return nil, fmt.Errorf("%w: %s", ErrNoWeights, id)
	}
	raw, err := r.blobs.Get(rec.Weights)
	if err != nil {
		return nil, fmt.Errorf("registry: load weights for %s: %w", id, err)
	}
	net, err := nn.DecodeMLP(raw)
	if err != nil {
		return nil, fmt.Errorf("registry: decode weights for %s: %w", id, err)
	}
	return &model.Model{ID: rec.ID, Name: rec.Name, Net: net, Hist: rec.Hist}, nil
}

// Card returns the stored card for id, or ErrNotFound if the model has none.
func (r *Registry) Card(id string) (*card.Card, error) {
	b, err := r.kv.Get(cardKey(id))
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return nil, fmt.Errorf("%w: card for %s", ErrNotFound, id)
		}
		return nil, err
	}
	return card.Unmarshal(b)
}

// PutCard replaces the card for an existing model (e.g. after docgen).
func (r *Registry) PutCard(id string, c *card.Card) error {
	if !r.kv.Has(modelKey(id)) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cc := c.Clone()
	cc.ModelID = id
	b, err := cc.Marshal()
	if err != nil {
		return err
	}
	return r.kv.Put(cardKey(id), b)
}

// List returns all records in ID (= registration) order.
func (r *Registry) List() ([]*Record, error) {
	var out []*Record
	var scanErr error
	err := r.kv.Scan("model/", func(k string, v []byte) bool {
		var rec Record
		if err := json.Unmarshal(v, &rec); err != nil {
			scanErr = fmt.Errorf("registry: decode %s: %w", k, err)
			return false
		}
		out = append(out, &rec)
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

// Count returns the number of registered models.
func (r *Registry) Count() int { return r.kv.Count("model/") }

// Delete removes a model, its card, and its name-index entry. Weights blobs
// are left in place (they may be shared via content addressing).
func (r *Registry) Delete(id string) error {
	rec, err := r.Get(id)
	if err != nil {
		return err
	}
	if err := r.kv.Delete(nameKey(rec.Name, rec.Version)); err != nil {
		return err
	}
	if err := r.kv.Delete(cardKey(id)); err != nil {
		return err
	}
	return r.kv.Delete(modelKey(id))
}
