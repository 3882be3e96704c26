package lake

import (
	"errors"
	"sync"
	"time"

	"modellake/internal/card"
	"modellake/internal/model"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// change is what landed in the KV store for one model, in the terms the
// lake's derived state reads.
type change struct {
	id         string
	registered bool         // a model/<id> record landed
	closed     *model.Model // live model of a closed-weights ingest: its only copy
	card       *card.Card   // card whose text to index
	dropCard   bool         // the card/<id> record was deleted
	bvec, wvec tensor.Vector
}

// commit is the only writer of the lake's derived state after Open: every
// write path calls it once, after its KV commit. Its steps, in order:
//
//  1. Under l.mu: closed-weights models go into modelCache, a cached copy of
//     any other registered id is dropped, and if a model registered, the
//     graph slot is cleared and the population generation l.gen bumped —
//     first, so a closed-weights model's copy is in place before step 3
//     lets a roster drain look for it.
//  2. The keyword index and both content indexes take the cards and rows.
//  3. Behaviour-indexed ids go onto the task-roster backlog.
//  4. Last, and only if some change carried vectors, the query cache is
//     invalidated, so no answer computed before step 2 outlives it.
//
// commit takes no other lock while it holds l.mu. Every change is applied;
// keyword errors (only a card replacement can hit one) come back joined.
func (l *Lake) commit(chs []change) error {
	l.mu.Lock()
	registered := false
	for _, ch := range chs {
		if ch.closed != nil {
			l.modelCache[ch.id] = ch.closed
		} else if ch.registered {
			delete(l.modelCache, ch.id) // reloads from the landed record
		}
		registered = registered || ch.registered
	}
	if registered {
		l.graph = nil
		l.gen++
	}
	l.mu.Unlock()

	var err error
	var roster []string
	vectors := false
	for _, ch := range chs {
		if ch.card != nil {
			err = errors.Join(err, l.keyword.Add(ch.id, ch.card.Text()))
		} else if ch.dropCard {
			err = errors.Join(err, l.keyword.Remove(ch.id))
		}
		if ch.bvec != nil && l.behaviorCS.AddVector(ch.id, ch.bvec) == nil {
			roster = append(roster, ch.id)
		}
		if ch.wvec != nil {
			_ = l.weightCS.AddVector(ch.id, ch.wvec)
		}
		vectors = vectors || ch.bvec != nil || ch.wvec != nil
	}
	l.taskBacklog.push(roster...)
	if vectors {
		l.qcache.invalidate()
	}
	return err
}

// backlog queues ids whose derived state loads on the first read that needs
// it. drain marks it fresh only once it has seen the queue empty, so a reader
// arriving mid-drain waits for the drain rather than read a partial state.
type backlog struct {
	drainMu sync.Mutex // serializes drains
	mu      sync.Mutex
	ids     []string // guarded by mu
	stale   bool     // guarded by mu: pushed to since a drain last saw ids empty
}

func (b *backlog) push(ids ...string) {
	if len(ids) == 0 {
		return
	}
	b.mu.Lock()
	b.ids, b.stale = append(b.ids, ids...), true
	b.mu.Unlock()
}

// drain hands every queued id to load, ids pushed while it runs included.
// load runs under drainMu — that is what makes a second drainer wait — so it
// must not drain b itself.
func (b *backlog) drain(load func(ids []string)) {
	b.mu.Lock()
	stale := b.stale
	b.mu.Unlock()
	if !stale {
		return
	}
	b.drainMu.Lock()
	defer b.drainMu.Unlock()
	for {
		b.mu.Lock()
		ids := b.ids
		b.ids, b.stale = nil, len(ids) > 0
		b.mu.Unlock()
		if len(ids) == 0 {
			return
		}
		load(ids)
	}
}

// ensureTaskRoster loads the task-roster backlog's models into the roster,
// skipping any that fail to load (deleted since).
func (l *Lake) ensureTaskRoster() {
	l.taskBacklog.drain(func(ids []string) {
		for _, id := range ids {
			if h, err := l.Model(id); err == nil {
				l.taskSearch.Add(h)
			}
		}
	})
}

// ensureKeyword indexes the cards a reopen left on the keyword backlog, read
// in parallel and bulk-loaded so each shard's segment is built directly. A
// PutCard racing it is safe either way round: the drain reads the current
// card, BulkLoad leaves a document an Add already indexed alone, and a later
// Add replaces as usual.
func (l *Lake) ensureKeyword() {
	l.kwBacklog.drain(func(ids []string) {
		start := time.Now()
		docs := make([]search.Doc, len(ids))
		runParallel(len(ids), 0, func(i int) {
			if c, err := l.reg.Card(ids[i]); err == nil {
				docs[i] = search.Doc{ID: ids[i], Text: c.Text()}
			}
		})
		carded := docs[:0]
		for _, d := range docs {
			if d.ID != "" {
				carded = append(carded, d)
			}
		}
		l.keyword.BulkLoad(carded, 0)
		mKwDrainDur.Since(start)
	})
}
