package lake

import (
	"context"
	"fmt"
	"time"

	"modellake/internal/mlql"
	"modellake/internal/model"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// SearchKeyword is metadata search over cards (the status-quo baseline).
func (l *Lake) SearchKeyword(query string, k int) []search.Hit {
	hits, _ := l.SearchKeywordContext(context.Background(), query, k)
	return hits
}

// SearchKeywordContext is SearchKeyword honoring a request context, so a
// timed-out request is refused instead of burning index time on an answer
// nobody is waiting for.
func (l *Lake) SearchKeywordContext(ctx context.Context, query string, k int) ([]search.Hit, error) {
	defer mSearchDurs("keyword").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.ensureKeyword()
	return l.keyword.Search(query, k)
}

// contentSearcher maps an embedding-space name to its searcher.
func (l *Lake) contentSearcher(space string) (*search.ContentSearcher, error) {
	switch space {
	case "", "behavior":
		return l.behaviorCS, nil
	case "weights":
		return l.weightCS, nil
	}
	return nil, fmt.Errorf("lake: unknown embedding space %q", space)
}

// embed runs cs's embedder on h, counted as embed demand that had to be
// computed.
func embed(cs *search.ContentSearcher, h *model.Handle) (tensor.Vector, error) {
	mEmbedMisses.Inc()
	return cs.EmbedQuery(h)
}

// queryVector is the query vector of lake model id in space: the
// full-precision row the index stores under id — what the embedder returned
// at ingest and what every distance to id is computed against — so a related
// query loads no weights and embeds nothing. Only when the space does not
// index id (closed weights after a restart, a shape the probe space rejects,
// a follower that skipped a foreign-namespace vec record) is the model loaded
// and embedded, which yields the vector or the reason there is none.
func (l *Lake) queryVector(id, space string) (tensor.Vector, error) {
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	v, ok, err := cs.Vector(id)
	if err != nil {
		return nil, err
	}
	if ok {
		mEmbedHits.Inc()
		return v, nil
	}
	h, err := l.Model(id)
	if err != nil {
		return nil, err
	}
	return embed(cs, h)
}

// searchAround ranks the lake by proximity to v and drops selfID — the half
// of a model-as-query search after the query vector is known. The cluster
// runs the same two steps with a merge across shards between them.
func (l *Lake) searchAround(ctx context.Context, space string, v tensor.Vector, selfID string, k int) ([]search.Hit, error) {
	raw, err := l.SearchByVectorSpace(ctx, space, v, k+1)
	if err != nil {
		return nil, err
	}
	return search.ExcludeSelf(raw, selfID, k), nil
}

// SearchByModel is model-as-query related-model search in the given space
// ("behavior", the default, or "weights").
func (l *Lake) SearchByModel(id, space string, k int) ([]search.Hit, error) {
	return l.SearchByModelContext(context.Background(), id, space, k)
}

// SearchByModelContext is SearchByModel honoring a request context.
func (l *Lake) SearchByModelContext(ctx context.Context, id, space string, k int) ([]search.Hit, error) {
	defer mSearchDurs("model").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := l.queryVector(id, space)
	if err != nil {
		return nil, err
	}
	return l.searchAround(ctx, space, v, id, k)
}

// SearchByHandle is model-as-query search with an external query model (one
// that is not necessarily in the lake), e.g. "find models like this one I
// built locally".
func (l *Lake) SearchByHandle(h *model.Handle, space string, k int) ([]search.Hit, error) {
	return l.SearchByHandleContext(context.Background(), h, space, k)
}

// SearchByHandleContext is SearchByHandle honoring a request context.
func (l *Lake) SearchByHandleContext(ctx context.Context, h *model.Handle, space string, k int) ([]search.Hit, error) {
	defer mSearchDurs("model").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	v, err := embed(cs, h)
	if err != nil {
		return nil, err
	}
	return l.searchAround(ctx, space, v, h.ID(), k)
}

// SearchByModelMany answers a batch of model-as-query searches in one call,
// fanning the per-query work (embed, cache lookup, index scan) across a
// bounded worker pool. Hits and errors are aligned with ids; one model's
// failure does not abort the batch. parallelism <= 0 means GOMAXPROCS.
// Every answer is identical to a serial SearchByModelContext call.
func (l *Lake) SearchByModelMany(ctx context.Context, ids []string, space string, k, parallelism int) ([][]search.Hit, []error) {
	hits := make([][]search.Hit, len(ids))
	errs := make([]error, len(ids))
	runParallel(len(ids), parallelism, func(i int) {
		hits[i], errs[i] = l.SearchByModelContext(ctx, ids[i], space, k)
	})
	return hits, errs
}

// QueryCacheStats reports query-result-cache hits and misses since the lake
// was opened (zeros when the cache is disabled).
func (l *Lake) QueryCacheStats() (hits, misses uint64) {
	return l.qcache.stats()
}

// SearchTask ranks models by behavioural fit to labeled task examples. It
// first loads the models queued on the roster since the last task search
// (see ensureTaskRoster); answers are identical to an eagerly built roster
// because task ranking sorts by score with ID tie-breaks, independent of
// roster order.
func (l *Lake) SearchTask(examples []search.TaskExample, k int) ([]search.Hit, error) {
	defer mSearchDurs("task").Since(time.Now())
	l.ensureTaskRoster()
	return l.taskSearch.Search(examples, k)
}

// SearchHybrid fuses keyword and behavioural rankings with reciprocal-rank
// fusion: text finds documented models, behaviour finds similar ones.
func (l *Lake) SearchHybrid(query string, queryModelID string, k int) ([]search.Hit, error) {
	defer mSearchDurs("hybrid").Since(time.Now())
	var rankings [][]search.Hit
	if query != "" {
		l.ensureKeyword()
		kw, err := l.keyword.Search(query, k*4)
		if err != nil {
			return nil, err
		}
		rankings = append(rankings, kw)
	}
	if queryModelID != "" {
		content, err := l.SearchByModel(queryModelID, "behavior", k*4)
		if err != nil {
			return nil, err
		}
		rankings = append(rankings, content)
	}
	if len(rankings) == 0 {
		return nil, fmt.Errorf("lake: hybrid search needs a text query or a query model")
	}
	fused := search.FuseRRF(0, rankings...)
	if k < len(fused) {
		fused = fused[:k]
	}
	return fused, nil
}

// Query parses and executes an MLQL query against the lake.
func (l *Lake) Query(q string) (*mlql.Result, error) {
	return l.QueryContext(context.Background(), q)
}

// QueryContext is Query honoring a request context: the executor checks the
// context between candidate-filtering stages, so a canceled or timed-out
// request abandons the query promptly.
func (l *Lake) QueryContext(ctx context.Context, q string) (*mlql.Result, error) {
	defer mQueryDur.Since(time.Now())
	return mlql.RunContext(ctx, q, (*catalog)(l))
}

// Explain parses a query and renders its evaluation plan without running it.
func (l *Lake) Explain(q string) (string, error) {
	parsed, err := mlql.Parse(q)
	if err != nil {
		return "", err
	}
	return mlql.Explain(parsed), nil
}
