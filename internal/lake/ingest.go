package lake

import (
	"context"
	"fmt"
	"time"

	"modellake/internal/card"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/tensor"
)

// embedded holds the ID-independent per-model work a batch ingest can do
// concurrently before any durable state is touched: the content-space
// embeddings.
type embedded struct {
	bvec, wvec tensor.Vector
}

// preparedIngest is one model's fully staged ingest: registry ops, the
// vec-record and provenance ops that commit atomically with them, and the
// in-memory bookkeeping inputs for after the batch lands.
type preparedIngest struct {
	pend  *registry.Pending
	extra []kvstore.Op // vec record + provenance, same atomic batch
	bvec  tensor.Vector
	wvec  tensor.Vector
	m     *model.Model
	c     *card.Card
}

// embedItem computes a model's content-space vectors. They are independent
// of the (not yet assigned) model ID, which is what lets batch ingest run
// this stage on a worker pool.
func (l *Lake) embedItem(m *model.Model) embedded {
	var e embedded
	if m == nil {
		return e
	}
	h := model.NewHandle(m)
	if v, err := embed(l.behaviorCS, h); err == nil {
		e.bvec = v
	}
	if v, err := embed(l.weightCS, h); err == nil {
		e.wvec = v
	}
	return e
}

// prepareIngest stages one model for commit: registry Prepare (ID + seq
// assignment, record/card/name ops), the persisted-vector record, and the
// provenance journal entries. pending carries provenance entity IDs staged
// earlier in the same batch, so in-batch derivations relate exactly like a
// serial ingest loop would. Nothing durable happens here beyond sequence
// leases; the caller owns blob writes and the atomic Apply.
func (l *Lake) prepareIngest(m *model.Model, c *card.Card, opts registry.RegisterOptions, e embedded, pending map[string]bool) (*preparedIngest, error) {
	pend, err := l.reg.Prepare(m, c, opts)
	if err != nil {
		return nil, err
	}
	p := &preparedIngest{pend: pend, bvec: e.bvec, wvec: e.wvec, m: m, c: c}
	if pend.Rec.Weights != "" && (e.bvec != nil || e.wvec != nil) {
		// Persist the vectors for open-weights models only: closed-weights
		// behaviour intentionally does not survive restarts.
		var vecs []spaceVec
		if e.bvec != nil {
			vecs = append(vecs, spaceVec{Space: l.behaviorCS.EmbedderName(), Vec: e.bvec})
		}
		if e.wvec != nil {
			vecs = append(vecs, spaceVec{Space: l.weightCS.EmbedderName(), Vec: e.wvec})
		}
		p.extra = append(p.extra, kvstore.Op{Key: vecKey(pend.Rec.ID), Value: encodeVecRecord(l.vecNS, vecs)})
	}
	provOps, err := l.provenanceOps(pend.Rec, m, pending)
	if err != nil {
		return nil, err
	}
	p.extra = append(p.extra, provOps...)
	return p, nil
}

// change is the population change of a landed ingest, for commit. It stamps
// the assigned ID on the caller's model; a model without stored weights is
// handed over live, as nothing else can load it.
func (p *preparedIngest) change() change {
	rec := p.pend.Rec
	p.m.ID = rec.ID
	ch := change{id: rec.ID, registered: true, card: p.c, bvec: p.bvec, wvec: p.wvec}
	if rec.Weights == "" {
		ch.closed = p.m
	}
	return ch
}

// Ingest registers a model with its card, indexes it for every search
// modality, and journals its provenance. The registry record, name mapping,
// card, persisted index vectors, and provenance entries commit in ONE atomic
// kvstore batch: a crash anywhere leaves either the whole model or none of
// it, never a half-registered ghost. It returns the registry record.
func (l *Lake) Ingest(m *model.Model, c *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	start := time.Now()
	defer mIngestDur.Since(start)
	mIngests.Inc()
	p, err := l.prepareIngest(m, c, opts, l.embedItem(m), map[string]bool{})
	if err != nil {
		return nil, err
	}
	if p.pend.EncodedWeights != nil {
		if _, err := l.blobs.Put(p.pend.EncodedWeights); err != nil {
			return nil, fmt.Errorf("registry: store weights: %w", err)
		}
	}
	if err := l.kv.Apply(append(p.pend.Ops, p.extra...)); err != nil {
		return nil, err
	}
	// A freshly minted ID is never segment-resident in the keyword index,
	// so commit cannot fail.
	_ = l.commit([]change{p.change()})
	return p.pend.Rec, nil
}

// IngestContext is Ingest with a context boundary check: a request whose
// caller has already gone away (canceled, deadline expired) is refused
// before any durable work starts, instead of committing a write nobody will
// see acknowledged. The ingest itself is not interruptible mid-commit — an
// atomic batch either fully lands or doesn't — so the check is at the
// boundary, mirroring the cluster write path.
func (l *Lake) IngestContext(ctx context.Context, m *model.Model, c *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Ingest(m, c, opts)
}

// provenanceOps builds the journal writes for a model's provenance — the
// model entity, its creating activity, and declared inputs — without
// committing them, so they ride in the registration's atomic batch. pending
// vouches for entity IDs staged earlier in the same batch.
func (l *Lake) provenanceOps(rec *registry.Record, m *model.Model, pending map[string]bool) ([]kvstore.Op, error) {
	var ops []kvstore.Op
	put := func(id string, kind provenance.Kind, label string, attrs map[string]string) error {
		_, op, err := l.prov.PutOps(id, kind, label, attrs)
		if err != nil {
			return fmt.Errorf("lake: provenance: %w", err)
		}
		ops = append(ops, op)
		pending[id] = true
		return nil
	}
	relate := func(typ provenance.RelationType, subject, object string) error {
		op, err := l.prov.RelateOps(typ, subject, object, func(id string) bool { return pending[id] })
		if err != nil {
			return err
		}
		ops = append(ops, op)
		return nil
	}
	ent := "model:" + rec.ID
	if err := put(ent, provenance.Entity, rec.Name, map[string]string{
		"arch": rec.Arch, "version": rec.Version,
	}); err != nil {
		return nil, err
	}
	if m.Hist != nil {
		act := "activity:" + rec.ID + "/" + m.Hist.Transformation
		if err := put(act, provenance.Activity, m.Hist.Transformation, nil); err != nil {
			return nil, err
		}
		if err := relate(provenance.WasGeneratedBy, ent, act); err != nil {
			return nil, err
		}
		if m.Hist.DatasetID != "" {
			dsEnt := "dataset:" + m.Hist.DatasetID
			if err := put(dsEnt, provenance.Entity, m.Hist.DatasetID, nil); err != nil {
				return nil, err
			}
			if err := relate(provenance.Used, act, dsEnt); err != nil {
				return nil, err
			}
		}
		for _, base := range m.Hist.BaseModelIDs {
			baseEnt := "model:" + base
			if l.kv.Has("prov/rec/"+baseEnt) || pending[baseEnt] {
				if err := relate(provenance.WasDerivedFrom, ent, baseEnt); err != nil {
					return nil, err
				}
			}
		}
	}
	return ops, nil
}

// IngestItem is one model in a batch ingest.
type IngestItem struct {
	Model *model.Model
	Card  *card.Card
	Opts  registry.RegisterOptions
}

// Batch-ingest chunking: each chunk of staged models commits as one atomic
// multi-record kvstore batch (one fsync under Sync). Bounds keep a chunk
// comfortably under the store's record-size ceiling while amortizing the
// commit cost across many models.
const (
	ingestChunkModels = 128
	ingestChunkBytes  = 4 << 20
)

// IngestAll is the batch form of Ingest, rebuilt around the write path's
// batch primitives: models are embedded concurrently (stage 1), staged
// serially in input order so IDs and sequence numbers match a serial Ingest
// loop exactly (stage 2), their weights land with coalesced shard-directory
// fsyncs (stage 3), and registration + card + persisted vectors + provenance
// commit in chunked atomic kvstore batches before the in-memory indexes
// update in input order (stage 4). Each chunk is all-or-nothing; the
// returned slices are aligned with items and a nil error means that model
// was fully ingested. parallelism bounds the embed stage's worker pool;
// <= 0 means GOMAXPROCS.
func (l *Lake) IngestAll(items []IngestItem, parallelism int) ([]*registry.Record, []error) {
	start := time.Now()
	defer mIngestDur.Since(start)
	mIngests.Add(uint64(len(items)))
	recs := make([]*registry.Record, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return recs, errs
	}

	// Stage 1: embeddings, concurrently — none of it needs
	// the model IDs assigned in stage 2.
	emb := make([]embedded, len(items))
	runParallel(len(items), parallelism, func(i int) {
		emb[i] = l.embedItem(items[i].Model)
	})

	// Stage 2: stage registrations serially in input order. The registry's
	// durable duplicate check cannot see uncommitted batch entries, so
	// in-batch name@version collisions are caught here.
	pres := make([]*preparedIngest, len(items))
	seen := map[string]bool{}
	pendingProv := map[string]bool{}
	var weights [][]byte
	for i, it := range items {
		if it.Model != nil {
			name := it.Opts.Name
			if name == "" {
				name = it.Model.Name
			}
			ver := it.Opts.Version
			if ver == "" {
				ver = "1"
			}
			nv := name + "@" + ver
			if name != "" && seen[nv] {
				errs[i] = fmt.Errorf("%w: %s", registry.ErrDuplicate, nv)
				continue
			}
			seen[nv] = true
		}
		p, err := l.prepareIngest(it.Model, it.Card, it.Opts, emb[i], pendingProv)
		if err != nil {
			errs[i] = err
			continue
		}
		pres[i] = p
		if p.pend.EncodedWeights != nil {
			weights = append(weights, p.pend.EncodedWeights)
		}
	}

	// Stage 3: all weights blobs in one batch write — per-blob atomic, but
	// the shard-directory fsyncs coalesce across the batch.
	if len(weights) > 0 {
		if _, err := l.blobs.PutAll(weights); err != nil {
			for i := range pres {
				if pres[i] != nil {
					errs[i] = fmt.Errorf("registry: store weights: %w", err)
					pres[i] = nil
				}
			}
			return recs, errs
		}
	}

	// Stage 4: chunked atomic commits, then one commit of every landed
	// model's change in input order (so the indexes are identical to a
	// serial Ingest loop).
	var landed []change
	flush := func(chunk []int, ops []kvstore.Op) {
		if len(chunk) == 0 {
			return
		}
		if err := l.kv.Apply(ops); err != nil {
			for _, i := range chunk {
				errs[i] = err
			}
			return
		}
		for _, i := range chunk {
			landed = append(landed, pres[i].change())
			recs[i] = pres[i].pend.Rec
		}
	}
	var chunk []int
	var ops []kvstore.Op
	var opBytes int
	for i := range pres {
		if pres[i] == nil {
			continue
		}
		itemOps := append(append([]kvstore.Op(nil), pres[i].pend.Ops...), pres[i].extra...)
		sz := 0
		for _, op := range itemOps {
			sz += len(op.Key) + len(op.Value)
		}
		if len(chunk) > 0 && (len(chunk) >= ingestChunkModels || opBytes+sz > ingestChunkBytes) {
			flush(chunk, ops)
			chunk, ops, opBytes = nil, nil, 0
		}
		chunk = append(chunk, i)
		ops = append(ops, itemOps...)
		opBytes += sz
	}
	flush(chunk, ops)
	_ = l.commit(landed) // fresh IDs: see Ingest
	return recs, errs
}

// IngestAllContext is IngestAll with the same boundary context check as
// IngestContext: a dead context fails every item up front with the context
// error rather than committing a batch for a caller that has gone away.
func (l *Lake) IngestAllContext(ctx context.Context, items []IngestItem, parallelism int) ([]*registry.Record, []error) {
	if err := ctx.Err(); err != nil {
		recs := make([]*registry.Record, len(items))
		errs := make([]error, len(items))
		for i := range errs {
			errs[i] = err
		}
		return recs, errs
	}
	return l.IngestAll(items, parallelism)
}
