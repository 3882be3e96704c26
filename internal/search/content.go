package search

import (
	"context"
	"fmt"
	"io"
	"sync"

	"modellake/internal/data"
	"modellake/internal/embedding"
	"modellake/internal/index"
	"modellake/internal/model"
	"modellake/internal/tensor"
)

// ContentSearcher is the content-based model search engine: models are
// embedded (weight-space, behavioural, or hybrid) and indexed in an ANN
// structure; queries are models, vectors, or free text routed to the right
// embedding space.
type ContentSearcher struct {
	embedder embedding.Embedder
	idx      index.Index
	mu       sync.RWMutex
	added    map[string]bool // IDs reserved for or present in the index
}

// NewContentSearcher builds a searcher over the given embedder and ANN
// index. The index must be empty and is owned by the searcher afterwards.
func NewContentSearcher(e embedding.Embedder, idx index.Index) *ContentSearcher {
	return &ContentSearcher{embedder: e, idx: idx, added: make(map[string]bool)}
}

// EmbedderName reports the underlying embedding space.
func (s *ContentSearcher) EmbedderName() string { return s.embedder.Name() }

// MemBytes estimates the heap retained by the underlying vector index, when
// the index can report it (every built-in index can; zero otherwise).
func (s *ContentSearcher) MemBytes() int64 {
	if mr, ok := s.idx.(interface{ MemBytes() int64 }); ok {
		return mr.MemBytes()
	}
	return 0
}

// reserve claims id before the (expensive) embedding runs, so a concurrent
// add of the same ID fails fast instead of embedding twice and losing the
// race at indexing time.
func (s *ContentSearcher) reserve(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.added[id] {
		return fmt.Errorf("search: %s already indexed", id)
	}
	s.added[id] = true
	return nil
}

// unreserve releases a claim whose embed or index step failed.
func (s *ContentSearcher) unreserve(id string) {
	s.mu.Lock()
	delete(s.added, id)
	s.mu.Unlock()
}

// Add embeds and indexes a model. The ID is reserved before embedding, so
// two concurrent adds of the same model do the expensive embed only once:
// the loser returns "already indexed" immediately.
func (s *ContentSearcher) Add(h *model.Handle) error {
	if err := s.reserve(h.ID()); err != nil {
		return err
	}
	v, err := s.embedder.Embed(h)
	if err != nil {
		s.unreserve(h.ID())
		return fmt.Errorf("search: embed %s: %w", h.ID(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idx.Add(h.ID(), v); err != nil {
		delete(s.added, h.ID())
		return fmt.Errorf("search: index %s: %w", h.ID(), err)
	}
	return nil
}

// Reserve hints that about n models of dimension dim are about to be added,
// letting capacity-aware indexes (Flat) pre-size their packed storage. It is
// advisory: indexes without the hint ignore it, and n is not a cap.
func (s *ContentSearcher) Reserve(n, dim int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.idx.(interface{ Reserve(n, dim int) }); ok {
		r.Reserve(n, dim)
	}
}

// AddVector indexes a model under a precomputed embedding, skipping the
// embed step entirely — the fast path behind lake rehydration, where the
// vector was computed (by this searcher's own embedder) at ingest time and
// persisted alongside the registry record. The caller is responsible for the
// vector actually belonging to this searcher's embedding space; everything
// else (ID reservation, index insertion) matches Add exactly.
func (s *ContentSearcher) AddVector(id string, v tensor.Vector) error {
	if err := s.reserve(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.idx.Add(id, v); err != nil {
		delete(s.added, id)
		return fmt.Errorf("search: index %s: %w", id, err)
	}
	return nil
}

// index snapshots the current index under the read lock: AdoptIndex swaps the
// index out atomically, and searches must not observe a half-assigned field.
func (s *ContentSearcher) index() index.Index {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx
}

// AdoptIndex atomically replaces the searcher's index with one built
// externally — a disk-resident segment validated on open, or a freshly
// rebuilt one — that already contains exactly ids. The ID reservation set is
// reset to match, so subsequent Add/AddVector calls behave as if each id had
// been added through the searcher. The previous index is abandoned
// unclosed: in-flight searches may still hold it, and a disk-resident
// index's file handle is released when the old index is collected (or by
// Close on the searcher before any swap happened).
func (s *ContentSearcher) AdoptIndex(idx index.Index, ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx = idx
	s.added = make(map[string]bool, len(ids))
	for _, id := range ids {
		s.added[id] = true
	}
}

// Close releases resources held by the current index — a disk-resident
// index keeps its segment file open for pread rescoring. Indexes without
// resources make this a no-op. Searches racing Close may fail.
func (s *ContentSearcher) Close() error {
	if c, ok := s.index().(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Len returns the number of indexed models.
func (s *ContentSearcher) Len() int { return s.index().Len() }

// Vector returns a copy of the full-precision vector the index stores under
// id — what the embedder returned when id was added, and what every distance
// to id is computed against. ok is false when id is not indexed (or the index
// keeps no readable rows), and the caller embeds instead.
func (s *ContentSearcher) Vector(id string) (tensor.Vector, bool, error) {
	if vr, ok := s.index().(interface {
		Vector(id string) (tensor.Vector, bool, error)
	}); ok {
		return vr.Vector(id)
	}
	return nil, false, nil
}

// EmbedQuery embeds a query model into this searcher's space without
// touching the index — the first half of SearchByModel, exposed so callers
// (the lake's query-result cache) can key on the vector before deciding
// whether the index scan is needed.
func (s *ContentSearcher) EmbedQuery(q *model.Handle) (tensor.Vector, error) {
	v, err := s.embedder.Embed(q)
	if err != nil {
		return nil, fmt.Errorf("search: embed query %s: %w", q.ID(), err)
	}
	return v, nil
}

// SearchByModel performs model-as-query related-model search: rank indexed
// models by embedding proximity to the query model. The query model itself
// (matched by ID) is excluded from the results.
func (s *ContentSearcher) SearchByModel(q *model.Handle, k int) ([]Hit, error) {
	return s.SearchByModelContext(context.Background(), q, k)
}

// SearchByModelContext is SearchByModel honoring a request context: a long
// flat scan is abandoned mid-stream when ctx is canceled.
func (s *ContentSearcher) SearchByModelContext(ctx context.Context, q *model.Handle, k int) ([]Hit, error) {
	v, err := s.EmbedQuery(q)
	if err != nil {
		return nil, err
	}
	raw, err := s.SearchByVectorContext(ctx, v, k+1)
	if err != nil {
		return nil, err
	}
	return ExcludeSelf(raw, q.ID(), k), nil
}

// ExcludeSelf drops the query model's own entry from raw hits and truncates
// to k — the post-processing step between a raw vector search (what the
// result cache stores) and a model-as-query answer.
func ExcludeSelf(raw []Hit, selfID string, k int) []Hit {
	hits := make([]Hit, 0, k)
	for _, r := range raw {
		if r.ID == selfID {
			continue
		}
		hits = append(hits, r)
		if len(hits) == k {
			break
		}
	}
	return hits
}

// SearchByVectorContext ranks indexed models by proximity to a raw
// embedding vector.
func (s *ContentSearcher) SearchByVectorContext(ctx context.Context, v tensor.Vector, k int) ([]Hit, error) {
	res, err := s.index().Search(ctx, v, k)
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, len(res))
	for i, r := range res {
		hits[i] = Hit{ID: r.ID, Score: -r.Distance}
	}
	return hits, nil
}

// TaskExample is one labeled example of the task function Q: X → Y from the
// paper's extrinsic search formalization.
type TaskExample struct {
	X tensor.Vector
	Y int
}

// TaskSearcher ranks models by behavioural fit to a task given as examples:
// score = mean probability the model assigns to the correct label. It only
// touches the extrinsic viewpoint, so it works on closed-weight models.
type TaskSearcher struct {
	mu     sync.RWMutex
	models []*model.Handle
}

// Add registers a model for task search.
func (t *TaskSearcher) Add(h *model.Handle) {
	t.mu.Lock()
	t.models = append(t.models, h)
	t.mu.Unlock()
}

// Len returns the number of registered models.
func (t *TaskSearcher) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.models)
}

// Search returns up to k models ranked by mean correct-label probability on
// the examples. Models that cannot consume the examples (dimension mismatch,
// withheld extrinsics) are skipped.
func (t *TaskSearcher) Search(examples []TaskExample, k int) ([]Hit, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("search: task search needs at least one example")
	}
	t.mu.RLock()
	models := append([]*model.Handle(nil), t.models...)
	t.mu.RUnlock()
	var hits []Hit
	for _, h := range models {
		total, ok := 0.0, true
		for _, ex := range examples {
			p, err := h.Probs(ex.X)
			if err != nil || ex.Y < 0 || ex.Y >= len(p) {
				ok = false
				break
			}
			total += p[ex.Y]
		}
		if !ok {
			continue
		}
		hits = append(hits, Hit{ID: h.ID(), Score: total / float64(len(examples))})
	}
	sortHits(hits)
	if k < len(hits) {
		hits = hits[:k]
	}
	return hits, nil
}

// DatasetAsTask converts a labeled dataset into task examples (up to n).
func DatasetAsTask(ds *data.Dataset, n int) []TaskExample {
	if n > ds.Len() {
		n = ds.Len()
	}
	out := make([]TaskExample, n)
	for i := 0; i < n; i++ {
		x, y := ds.Example(i)
		out[i] = TaskExample{X: x.Clone(), Y: y}
	}
	return out
}
