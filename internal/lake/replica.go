package lake

// Shard-addressable surface. A cluster router (internal/cluster) composes
// lakes out of these primitives:
//
//   - WAL shipping passthroughs (WALOffset/WALNotify/ReadWAL/ApplyWAL) turn
//     any durable lake into a replication leader or follower. ApplyWAL is
//     the follower half: it lands the shipped page in the local kvstore and
//     then refreshes the in-memory indexes from the applied ops, so a
//     replica serves vector, keyword, and MLQL reads without ever taking a
//     write of its own.
//   - Scatter-gather read primitives (EmbedModelQuery, SearchByVectorSpace,
//     KeywordStatsFor, SearchKeywordWithStats) expose the per-shard halves
//     of cluster-wide searches, factored so the router can merge per-shard
//     answers into results bitwise-identical to a single-node lake over the
//     union (see internal/cluster).

import (
	"context"
	"errors"
	"strings"
	"time"

	"modellake/internal/kvstore"
	"modellake/internal/provenance"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// WALOffset returns the durable end offset of the lake's metadata log — the
// replication cursor. Zero for in-memory lakes.
func (l *Lake) WALOffset() int64 { return l.kv.CommitOffset() }

// WALNotify returns the kvstore's coalesced commit-notification channel, so
// a shipper can block until there may be new log bytes instead of polling.
func (l *Lake) WALNotify() <-chan struct{} { return l.kv.CommitNotify() }

// ReadWAL returns committed metadata-log bytes from offset from, trimmed to
// whole records and about maxBytes — the leader half of WAL shipping.
func (l *Lake) ReadWAL(from int64, maxBytes int) ([]byte, error) {
	return l.kv.ReadLogRange(from, maxBytes)
}

// ApplyWAL applies a page shipped from this lake's leader: the kvstore
// validates and lands it (log append + fsync + map apply, exactly like a
// local commit), and then the in-memory search indexes absorb the new state.
// The blob store is shared with the leader (Config.BlobDir), so metadata is
// the only thing that ships.
//
// Each op becomes a population change (replicatedChange), and the page's
// changes go, in log order, to the commit every leader write path uses: a
// model is searchable by vector the moment its registration applies, and
// the task roster loads lazily on the replica's first task search. The page
// has landed whatever commit reports, so a keyword update it could not make
// (a postings block that fails to decode on demote) does not fail it.
func (l *Lake) ApplyWAL(page []byte) error {
	recs, err := kvstore.DecodePage(page)
	if err != nil {
		return err
	}
	if err := l.kv.ApplyPage(page); err != nil {
		return err
	}
	var chs []change
	for _, ops := range recs {
		for i := range ops {
			chs = append(chs, l.replicatedChange(&ops[i]))
		}
	}
	_ = l.commit(chs)
	return nil
}

// replicatedChange is the population change of one applied op (the zero
// change, a no-op to commit, for an op that makes none). It runs after the
// whole page landed, so registry reads see every key the op's batch carried.
// A vec record written under another embedding namespace has no rows this
// lake can use.
func (l *Lake) replicatedChange(op *kvstore.Op) (ch change) {
	switch {
	case strings.HasPrefix(op.Key, vecPrefix) && !op.Delete:
		ns, vecs, err := decodeVecRecord(op.Value)
		if err != nil || ns != l.vecNS {
			return change{}
		}
		ch.id = op.Key[len(vecPrefix):]
		for _, sv := range vecs {
			switch sv.Space {
			case l.behaviorCS.EmbedderName():
				ch.bvec = sv.Vec
			case l.weightCS.EmbedderName():
				ch.wvec = sv.Vec
			}
		}
	case strings.HasPrefix(op.Key, "card/"):
		ch.id, ch.dropCard = op.Key[len("card/"):], op.Delete
		if !op.Delete {
			ch.card, _ = l.reg.Card(ch.id) // nil if unreadable: nothing to index
		}
	case strings.HasPrefix(op.Key, "model/"):
		ch.id, ch.registered = op.Key[len("model/"):], true
	}
	return ch
}

// WALEpoch returns the replication leadership epoch last seen in the lake's
// metadata log — zero until some leader of this log's history was promoted.
func (l *Lake) WALEpoch() uint64 { return l.kv.Epoch() }

// BumpWALEpoch durably stamps a new leadership epoch into the metadata log
// (see kvstore.BumpEpoch). A promoted leader calls it immediately after
// Promote, so the stamp's byte offset marks the exact point up to which a
// deposed leader's history is authoritative.
func (l *Lake) BumpWALEpoch(epoch uint64) error { return l.kv.BumpEpoch(epoch) }

// Promote flips a Follower replica into a write-accepting leader after the
// cluster layer has fully caught it up with the dead leader's log. Two
// things distinguish a follower from a leader inside the lake itself, and
// both flip here: per-commit fsync (replicas run Sync:false and re-ship
// after a crash; a leader's acks must be durable, so sync restores the
// template's setting) and the benchmark score cache (redirected to private
// memory on a follower so the log stays a byte prefix of its leader's;
// re-pointed at the durable store now that this log IS the authoritative
// history). Everything else — indexes, registry, blob store — is already
// identical to the dead leader's state by the catch-up invariant.
func (l *Lake) Promote(sync bool) error {
	if !l.cfg.Follower {
		return errors.New("lake: Promote called on a lake that is not a follower")
	}
	l.cfg.Follower = false
	l.kv.SetSync(sync)
	l.runner.SetStore(l.kv)
	return nil
}

// EmbedModelQuery returns lake model id's query vector in the named content
// space (see queryVector) — the owner-shard half of a cluster model-as-query
// search, split from the scan so the vector can fan out to every shard.
func (l *Lake) EmbedModelQuery(id, space string) (tensor.Vector, error) {
	return l.queryVector(id, space)
}

// SearchByVectorSpace is the raw scan behind every content search, single
// node or per shard of a cluster scatter-gather: the local top-k by vector in
// the named space, with no self-exclusion (the caller excludes the query
// model, after merging if there are shards). It is the one place the
// query-result cache is read and written: the cache stores the raw index
// response, so cached and uncached answers are identical by construction.
func (l *Lake) SearchByVectorSpace(ctx context.Context, space string, v tensor.Vector, k int) ([]search.Hit, error) {
	defer mSearchDurs("vector").Since(time.Now())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs, err := l.contentSearcher(space)
	if err != nil {
		return nil, err
	}
	// The cache key includes the space name; normalize "" so the default
	// space shares entries with its explicit spelling.
	if space == "" {
		space = "behavior"
	}
	raw, gen, ok := l.qcache.get(space, v, k)
	if !ok {
		raw, err = cs.SearchByVectorContext(ctx, v, k)
		if err != nil {
			return nil, err
		}
		l.qcache.put(gen, space, v, k, raw)
	}
	return raw, nil
}

// KeywordStatsFor returns this lake's BM25 corpus statistics for an
// already-tokenized query — phase one of an exact cluster keyword search.
func (l *Lake) KeywordStatsFor(tokens []string) search.KeywordStats {
	l.ensureKeyword()
	return l.keyword.Stats(tokens)
}

// SearchKeywordWithStats ranks this lake's documents under cluster-global
// BM25 statistics — phase two of an exact cluster keyword search. The only
// error source is a postings block that fails to decode.
func (l *Lake) SearchKeywordWithStats(query string, g search.KeywordStats, k int) ([]search.Hit, error) {
	l.ensureKeyword()
	return l.keyword.SearchWithStats(query, g, k)
}

// ProvenanceWhy explains an entity from the provenance journal — the
// routable form of Provenance().Why for servers that may front a cluster
// rather than a single lake.
func (l *Lake) ProvenanceWhy(entity string) (*provenance.Explanation, error) {
	return l.prov.Why(entity)
}
